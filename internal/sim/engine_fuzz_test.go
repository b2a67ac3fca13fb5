package sim_test

import (
	"strconv"
	"testing"

	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// Engine fuzz op codes: the op byte modulo fuzzOps.
const (
	opAdd      = 0 // and 1: AddApp + PlaceApp with a test placer
	opRemove   = 2 // RemoveApp of the first finished app
	opAutoNUMA = 3 // AddApp + PlaceApp under AutoNUMA (registers its hook)
	opAdvance  = 4 // and 5, 6: advance 1..256 ticks
	opRun      = 7 // Run to completion or MaxTime, then stop
	fuzzOps    = 8
)

// fuzzSpec decodes a workload from a flag byte and a work byte: κ = 0 or
// 0.6, an optional two-phase demand curve, an optional init burst, and
// the background co-runner flag; work volume 0.5–47.75 GB.
func fuzzSpec(flags, work byte) workload.Spec {
	spec := kappaSpec(0.5+float64(work%64)*0.75, 0)
	if flags&1 != 0 {
		spec.LatencySensitivity = 0.6
	}
	if flags&2 != 0 {
		spec.Phases = []workload.Phase{
			{AtWorkFraction: 0.3, DemandFactor: 1.8, LatencyFactor: 0.5},
			{AtWorkFraction: 0.6, DemandFactor: 0.6, LatencyFactor: 1.5},
		}
	}
	if flags&4 != 0 {
		spec = spec.WithInitPhase(0.2+float64(flags>>5)*0.15, 1.7)
	}
	spec.ComputeBound = flags&8 != 0
	return spec
}

// fuzzWorkers decodes a non-empty worker set on an n-node machine from a
// node bitmask.
func fuzzWorkers(mask byte, n int) []topology.NodeID {
	var ws []topology.NodeID
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			ws = append(ws, topology.NodeID(i))
		}
	}
	if len(ws) == 0 {
		ws = []topology.NodeID{topology.NodeID(int(mask>>4) % n)}
	}
	return ws
}

var fuzzPlacers = []string{"local", "uniform-workers", "uniform-all"}

// FuzzEngineEquivalence holds the engine's tick loop to the naive
// solve-every-tick oracle bit for bit under arbitrary op schedules. Fuzz
// bytes drive two engines through the same app arrivals (phases, init
// bursts, κ = 0 and κ > 0, background co-runners), removals of finished
// apps, AutoNUMA's per-tick hook and advances of k ticks — AdvanceTicks(k)
// on one engine, k sim.NaiveTick calls on the other — and a final Run
// against sim.NaiveRun cut by MaxTime. Clock, latency multipliers,
// progress, completion and counters are compared after every op. The
// first byte picks MaxTime. The seed corpus runs in a plain `go test`;
// `go test -fuzz FuzzEngineEquivalence ./internal/sim` explores further.
func FuzzEngineEquivalence(f *testing.F) {
	// Empty-engine catch-up (a machine added mid-run ticks alone first),
	// then an arrival on the caught-up clock.
	f.Add([]byte{40, opAdvance, 255, opAdvance, 120, opAdd, 0, 10, 3, opAdvance, 200})
	// Windows cut between mutations: arrivals with κ = 0, κ > 0 and a
	// phase curve, a removal and a background co-runner, separated by
	// uneven advances.
	f.Add([]byte{200,
		opAdd, 0, 20, 1, opAdvance, 2, opAdd, 1, 70, 6, opAdvance, 6,
		opAdd, 2, 140, 9, opAdvance, 49, opRemove, opAdvance, 99,
		opAdd, 8, 5, 12, opAdvance, 199, opRemove, opAdvance, 255})
	// MaxTime cuts: Run stops mid-stream on the naive loop's tick.
	f.Add([]byte{57, opAdd, 0, 63, 3, opAdvance, 19, opRun})
	f.Add([]byte{3, opAdd, 1, 40, 15, opAdd, 8, 0, 4, opRun})
	// An init burst, then AutoNUMA churn: its hook pins every later tick
	// to the checked path.
	f.Add([]byte{90, opAdd, 4 | 2<<5, 30, 1, opAdvance, 4, opAutoNUMA, 0, 30, 6, opAdvance, 150, opRun})
	// Replay through the latency chase: two κ = 0 apps, one finishing
	// early, then a removal and a κ > 0 arrival.
	f.Add([]byte{255, opAdd, 0, 1, 1, opAdd, 0, 63, 12, opAdvance, 23,
		opRemove, opAdd, 1, 25, 2, opAdvance, 80, opRun})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := sim.Config{Seed: 7, MaxTime: 0.05 + float64(data[0])*0.37}
		m := topology.MachineB()
		eng, ref := sim.New(m, cfg), sim.New(m, cfg)
		numa := [2]*policy.AutoNUMA{{}, {}}
		data = data[1:]
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			op := data[0] % fuzzOps
			switch {
			case op <= opAdd+1 || op == opAutoNUMA:
				if len(data) < 4 {
					return
				}
				spec := fuzzSpec(data[1], data[2])
				workers := fuzzWorkers(data[3], m.NumNodes())
				name := "a" + strconv.Itoa(ops)
				spec.Name = name
				for i, e := range []*sim.Engine{eng, ref} {
					var p sim.Placer = testPlacer{fuzzPlacers[int(data[2]>>6)%len(fuzzPlacers)]}
					if op == opAutoNUMA {
						p = numa[i]
					}
					app, err := e.AddApp(name, spec, workers, p)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.PlaceApp(app); err != nil {
						t.Fatal(err)
					}
				}
				data = data[4:]
			case op == opRemove:
				for i, a := range eng.Apps() {
					if a.Done() {
						if err := eng.RemoveApp(a); err != nil {
							t.Fatal(err)
						}
						if err := ref.RemoveApp(ref.Apps()[i]); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				data = data[1:]
			case op == opRun:
				got, errGot := eng.Run()
				want, errWant := sim.NaiveRun(ref)
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("Run error %v, naive %v", errGot, errWant)
				}
				if errGot == nil && (got.TimedOut != want.TimedOut || !sameBits(got.Elapsed, want.Elapsed)) {
					t.Fatalf("Run %+v, naive %+v", got, want)
				}
				sameEngine(t, eng, ref)
				return
			default: // advance
				if len(data) < 2 {
					return
				}
				k := 1 + int(data[1])
				eng.AdvanceTicks(k)
				for i := 0; i < k; i++ {
					sim.NaiveTick(ref)
				}
				data = data[2:]
			}
			sameEngine(t, eng, ref)
		}
	})
}
