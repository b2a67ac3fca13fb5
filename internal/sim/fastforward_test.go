package sim_test

import (
	"math"
	"testing"

	"bwap/internal/perf"
	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The fast-forward equivalence tests pin the engine's memoized tick loop
// to the naive solve-every-tick oracle (sim.NaiveTick, sim.NaiveRun):
// every Result, counter and clock value must be byte-identical across
// phase changes, init bursts, co-scheduled contention, migration backlogs
// and hook-driven placement churn.

// ffScenario populates an engine with a workload mix; the same function
// runs once on the engine and once on the naive oracle.
type ffScenario struct {
	name  string
	build func(t *testing.T, e *sim.Engine)
}

func ffSpec(workGB float64) workload.Spec {
	return workload.Spec{
		Name: "ff", ReadGBs: 7, WriteGBs: 1.5, PrivateFrac: 0.4,
		LatencySensitivity: 0.6, WorkGB: workGB,
		SharedGB: 0.016, PrivateGBPerNode: 0.016,
	}
}

// kappaSpec is ffSpec with latency sensitivity κ.
func kappaSpec(workGB, kappa float64) workload.Spec {
	spec := ffSpec(workGB)
	spec.LatencySensitivity = kappa
	return spec
}

func addApp(t *testing.T, e *sim.Engine, name string, spec workload.Spec, workers []topology.NodeID, p sim.Placer) *sim.App {
	t.Helper()
	app, err := e.AddApp(name, spec, workers, p)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func ffScenarios() []ffScenario {
	return []ffScenario{
		{"steady", func(t *testing.T, e *sim.Engine) {
			addApp(t, e, "a", ffSpec(40), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
		}},
		{"init-burst", func(t *testing.T, e *sim.Engine) {
			spec := ffSpec(30).WithInitPhase(1.7, 0.5)
			addApp(t, e, "a", spec, []topology.NodeID{0}, testPlacer{"local"})
		}},
		{"phase-curve", func(t *testing.T, e *sim.Engine) {
			spec := ffSpec(35)
			spec.Phases = []workload.Phase{
				{AtWorkFraction: 0.25, DemandFactor: 1.6, LatencyFactor: 0.8},
				{AtWorkFraction: 0.7, DemandFactor: 0.5, LatencyFactor: 1.4},
			}
			addApp(t, e, "a", spec, []topology.NodeID{0, 1}, testPlacer{"uniform-all"})
		}},
		{"co-scheduled-background", func(t *testing.T, e *sim.Engine) {
			addApp(t, e, "fg", ffSpec(25), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
			bg := ffSpec(0)
			bg.Name = "bg"
			bg.ComputeBound = true
			addApp(t, e, "bg", bg, []topology.NodeID{2, 3}, testPlacer{"local"})
		}},
		{"staggered-completions", func(t *testing.T, e *sim.Engine) {
			addApp(t, e, "short", ffSpec(12), []topology.NodeID{0}, testPlacer{"local"})
			long := ffSpec(45)
			long.Name = "long"
			addApp(t, e, "long", long, []topology.NodeID{2, 3}, testPlacer{"uniform-workers"})
		}},
		{"autonuma-churn", func(t *testing.T, e *sim.Engine) {
			// A per-tick hook that migrates pages: placement epochs must
			// invalidate the cached solve exactly when migrations land.
			addApp(t, e, "a", ffSpec(30), []topology.NodeID{0, 1}, &policy.AutoNUMA{})
		}},
		{"latency-insensitive", func(t *testing.T, e *sim.Engine) {
			// κ = 0 everywhere: no throttle reads the latency multipliers,
			// so ticks replay while the feedback still converges after
			// each start and completion.
			addApp(t, e, "short", kappaSpec(10, 0), []topology.NodeID{0, 1}, testPlacer{"uniform-all"})
			addApp(t, e, "long", kappaSpec(160, 0), []topology.NodeID{2, 3}, testPlacer{"uniform-workers"})
		}},
		{"mixed-kappa", func(t *testing.T, e *sim.Engine) {
			// κ = 0 and κ > 0 co-scheduled with staggered completions: the
			// latency-sensitive app blocks replay through the chase while
			// it runs; once it completes, the κ = 0 survivors replay
			// through it.
			addApp(t, e, "flat-short", kappaSpec(8, 0), []topology.NodeID{0}, testPlacer{"local"})
			addApp(t, e, "sensitive", kappaSpec(20, 0.6), []topology.NodeID{1, 2}, testPlacer{"uniform-all"})
			addApp(t, e, "flat-long", kappaSpec(45, 0), []topology.NodeID{3}, testPlacer{"uniform-all"})
		}},
		{"max-time-cut", func(t *testing.T, e *sim.Engine) {
			// MaxTime lands mid-tick inside a long replayable stretch: the
			// replay batch must stop short of it so the checked loop times
			// out on exactly the naive loop's tick.
			e.Cfg.MaxTime = 20.05
			addApp(t, e, "a", ffSpec(2000), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
		}},
	}
}

// runFF runs the scenario to completion with Run, or with the naive
// oracle when naive is set.
func runFF(t *testing.T, sc ffScenario, naive bool) (*sim.Result, *sim.Engine) {
	t.Helper()
	e := sim.New(topology.MachineB(), sim.Config{Seed: 7})
	sc.build(t, e)
	run := e.Run
	if naive {
		run = func() (*sim.Result, error) { return sim.NaiveRun(e) }
	}
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// sameCounters fails unless the two apps' PMU state is bit-identical.
func sameCounters(t *testing.T, name string, a, b *perf.Counters) {
	t.Helper()
	if a.Time != b.Time || a.StalledCycles != b.StalledCycles || a.Cycles != b.Cycles ||
		a.Instructions != b.Instructions || a.BytesRead != b.BytesRead ||
		a.BytesWritten != b.BytesWritten || a.SharedBytes != b.SharedBytes ||
		a.PrivateBytes != b.PrivateBytes {
		t.Fatalf("%s: scalar counters diverge:\n%+v\n%+v", name, a, b)
	}
	for n := range a.NodeOutBytes {
		if a.NodeOutBytes[n] != b.NodeOutBytes[n] {
			t.Fatalf("%s: NodeOutBytes[%d] %v != %v", name, n, a.NodeOutBytes[n], b.NodeOutBytes[n])
		}
		for d := range a.PairBytes[n] {
			if a.PairBytes[n][d] != b.PairBytes[n][d] {
				t.Fatalf("%s: PairBytes[%d][%d] %v != %v", name, n, d, a.PairBytes[n][d], b.PairBytes[n][d])
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameEngine fails unless got's clock, latency multipliers and every app's
// progress, completion state and PMU counters are bit-identical to want's.
func sameEngine(t *testing.T, got, want *sim.Engine) {
	t.Helper()
	if !sameBits(got.Now(), want.Now()) || got.Ticks() != want.Ticks() {
		t.Fatalf("clock diverges: %v/%d vs %v/%d", got.Now(), got.Ticks(), want.Now(), want.Ticks())
	}
	for i, m := range got.LatMultipliers() {
		if !sameBits(m, want.LatMultipliers()[i]) {
			t.Fatalf("LatMultipliers[%d]: %v != %v", i, m, want.LatMultipliers()[i])
		}
	}
	if len(got.Apps()) != len(want.Apps()) {
		t.Fatalf("%d apps vs %d", len(got.Apps()), len(want.Apps()))
	}
	for i, a := range got.Apps() {
		b := want.Apps()[i]
		for wi := range a.Workers {
			if !sameBits(a.WorkerProgress(wi), b.WorkerProgress(wi)) {
				t.Fatalf("%s: worker %d progress %v != %v", a.Name, wi, a.WorkerProgress(wi), b.WorkerProgress(wi))
			}
		}
		if a.Done() != b.Done() || (a.Done() && !sameBits(a.FinishTime(), b.FinishTime())) {
			t.Fatalf("%s: done %v at %v vs done %v at %v", a.Name, a.Done(), a.FinishTime(), b.Done(), b.FinishTime())
		}
		sameCounters(t, a.Name, a.Counters, b.Counters)
	}
}

// TestFastForwardEquivalence pins byte-equality of the memoized tick loop
// against the naive oracle across every scenario class the engine models.
func TestFastForwardEquivalence(t *testing.T) {
	for _, sc := range ffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got, eng := runFF(t, sc, false)
			want, ref := runFF(t, sc, true)

			if got.Elapsed != want.Elapsed || got.TimedOut != want.TimedOut {
				t.Fatalf("run shape diverges: %+v vs %+v", got, want)
			}
			for name, tg := range got.Times {
				if tw, ok := want.Times[name]; !ok || tg != tw {
					t.Fatalf("Times[%s]: %v != %v (naive)", name, tg, tw)
				}
			}
			for name, sg := range got.AvgStallRate {
				if sw := want.AvgStallRate[name]; sg != sw {
					t.Fatalf("AvgStallRate[%s]: %v != %v (naive)", name, sg, sw)
				}
			}
			sameEngine(t, eng, ref)
		})
	}
}

// TestFastForwardEngages guards the equivalence suite against passing
// vacuously: once the latency feedback reaches its floating-point fixed
// point (a few dozen ticks), a long quiescent run must replay the
// overwhelming majority of its ticks.
func TestFastForwardEngages(t *testing.T) {
	sc := ffScenario{"long-steady", func(t *testing.T, e *sim.Engine) {
		addApp(t, e, "a", ffSpec(2000), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
	}}
	_, eng := runFF(t, sc, false)
	solves, replays := eng.FastForwardStats()
	if replays == 0 {
		t.Fatal("fast-forward never engaged")
	}
	if solves > eng.Ticks()/10 {
		t.Fatalf("only %d of %d ticks replayed (%d solves) on a quiescent run",
			replays, eng.Ticks(), solves)
	}
}

// TestReplayThroughLatencyChase pins the replay path for flow sets no
// throttle reads the latency multipliers of: two κ = 0 apps, one of which
// completes early, are advanced 24 ticks from placement. The feedback is
// still converging throughout (it takes dozens of ticks to settle), yet
// the engine must solve only when the flow set changes — once at the
// start and once per completion — and replay every other tick.
func TestReplayThroughLatencyChase(t *testing.T) {
	const ticks = 24
	e := sim.New(topology.MachineB(), sim.Config{Seed: 7})
	short := addApp(t, e, "short", kappaSpec(1.5, 0), []topology.NodeID{0}, testPlacer{"local"})
	long := addApp(t, e, "long", kappaSpec(400, 0), []topology.NodeID{2, 3}, testPlacer{"uniform-workers"})
	for _, a := range []*sim.App{short, long} {
		if err := e.PlaceApp(a); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTicks(ticks)
	if !short.Done() || long.Done() {
		t.Fatalf("want exactly the short app done after %d ticks (short %v, long %v)",
			ticks, short.Done(), long.Done())
	}
	stateChanges := 1 // the short app's completion
	solves, replays := e.FastForwardStats()
	t.Logf("solves %d, replays %d", solves, replays)
	if solves+replays != ticks {
		t.Fatalf("solves %d + replays %d != %d ticks", solves, replays, ticks)
	}
	if solves > stateChanges+1 {
		t.Fatalf("%d solves over %d ticks with %d flow-set changes; the latency chase forced re-solves",
			solves, ticks, stateChanges)
	}
}
