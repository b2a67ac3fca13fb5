package sim_test

import (
	"testing"

	"bwap/internal/sim"
	"bwap/internal/topology"
)

// countingHook records how many ticks it observed.
type countingHook struct{ ticks int }

func (h *countingHook) Tick(*sim.Engine) { h.ticks++ }

// TestIncrementalRunMatchesBatchRun drives the engine with the
// run-until-event primitives (PlaceApp + AdvanceTicks) and checks the
// app finishes at the same simulated time as a conventional Run.
func TestIncrementalRunMatchesBatchRun(t *testing.T) {
	m := topology.MachineB()
	spec := smallSpec(7, 0, 0, 0, 50)

	ref := sim.New(m, sim.Config{})
	if _, err := ref.AddApp("a", spec, []topology.NodeID{0}, testPlacer{mode: "local"}); err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := res.Times["a"]

	e := sim.New(m, sim.Config{})
	app, err := e.AddApp("a", spec, []topology.NodeID{0}, testPlacer{mode: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceApp(app); err != nil {
		t.Fatal(err)
	}
	// Advance in uneven chunks, then tick to completion.
	e.AdvanceTicks(10) // to t = 1.0
	if app.Done() {
		t.Fatalf("app done after 1s, expected ~%.1fs", want)
	}
	e.AdvanceTicks(27) // to t = 3.7
	for i := 0; !app.Done() && i < 100000; i++ {
		e.AdvanceTicks(1)
	}
	if !app.Done() {
		t.Fatal("app never finished under single-tick advances")
	}
	if got := app.FinishTime(); got != want {
		t.Fatalf("incremental finish %.6f, batch finish %.6f", got, want)
	}
}

// TestMidRunArrival adds a second app while the first is in flight: the
// late app must start at the engine's current time and both must finish.
func TestMidRunArrival(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{})
	a1, err := e.AddApp("first", smallSpec(7, 0, 0, 0, 40), []topology.NodeID{0}, testPlacer{mode: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceApp(a1); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTicks(20) // to t = 2.0

	spec2 := smallSpec(7, 0, 0, 0, 40)
	spec2.Name = "second"
	a2, err := e.AddApp("second", spec2, []topology.NodeID{1}, testPlacer{mode: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceApp(a2); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTicks(1980) // to t = 200
	if !a1.Done() || !a2.Done() {
		t.Fatalf("done: first=%v second=%v, want both", a1.Done(), a2.Done())
	}
	if a2.FinishTime() <= a1.FinishTime() {
		t.Fatalf("late arrival finished at %.2f, before first app's %.2f", a2.FinishTime(), a1.FinishTime())
	}
}

// TestRemoveAppDetachesOwnedHooks removes a departed app and checks its
// hooks stop ticking while global hooks keep running, and that the engine
// keeps advancing the remaining app correctly.
func TestRemoveAppDetachesOwnedHooks(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{})
	a1, err := e.AddApp("short", smallSpec(7, 0, 0, 0, 20), []topology.NodeID{0}, testPlacer{mode: "local"})
	if err != nil {
		t.Fatal(err)
	}
	long := smallSpec(7, 0, 0, 0, 60)
	long.Name = "long"
	a2, err := e.AddApp("long", long, []topology.NodeID{1}, testPlacer{mode: "local"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*sim.App{a1, a2} {
		if err := e.PlaceApp(a); err != nil {
			t.Fatal(err)
		}
	}
	owned := &countingHook{}
	global := &countingHook{}
	e.AddAppHook(a1, owned)
	e.AddHook(global)

	for !a1.Done() {
		e.AdvanceTicks(1)
	}
	ownedTicks := owned.ticks
	if err := e.RemoveApp(a1); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveApp(a1); err == nil {
		t.Fatal("second RemoveApp succeeded, want error")
	}
	e.AdvanceTicks(50) // 5 s
	if owned.ticks != ownedTicks {
		t.Fatalf("owned hook ticked %d more times after RemoveApp", owned.ticks-ownedTicks)
	}
	if global.ticks <= ownedTicks {
		t.Fatalf("global hook stopped ticking (%d)", global.ticks)
	}
	if len(e.Apps()) != 1 || e.Apps()[0] != a2 {
		t.Fatalf("apps after removal: %d", len(e.Apps()))
	}
	e.AdvanceTicks(2000 - e.Ticks()) // to t = 200
	if !a2.Done() {
		t.Fatal("remaining app never finished after RemoveApp reindexing")
	}
}

// TestUnplacedAppDoesNotRun ensures an app added without PlaceApp is inert.
func TestUnplacedAppDoesNotRun(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{})
	app, err := e.AddApp("idle", smallSpec(7, 0, 0, 0, 20), []topology.NodeID{0}, testPlacer{mode: "local"})
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceTicks(50) // to t = 5
	if app.Progress() != 0 || app.Done() {
		t.Fatalf("unplaced app made progress %.3f GB", app.Progress())
	}
	if err := e.PlaceApp(app); err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceApp(app); err == nil {
		t.Fatal("double PlaceApp succeeded, want error")
	}
	e.AdvanceTicks(1950) // to t = 200
	if !app.Done() {
		t.Fatal("app never ran after late placement")
	}
}
