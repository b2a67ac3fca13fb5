package memsys

import (
	"math"
	"testing"

	"bwap/internal/topology"
)

// fuzzMachines are the topologies FuzzSolverEquivalence draws from: the
// paper's two machines plus a small custom one with multi-hop routes,
// uneven controllers and links slower than either end's controller.
var fuzzMachines = []*topology.Machine{topology.MachineA(), topology.MachineB(), lineMachine()}

// lineMachine is three nodes on a line, 0 — 1 — 2, so 0↔2 traffic crosses
// two links in each direction.
func lineMachine() *topology.Machine {
	b := topology.NewBuilder("line3", 40)
	n0 := b.AddNode(4, 20, 1<<30, 80)
	n1 := b.AddNode(8, 35, 1<<30, 90)
	n2 := b.AddNode(2, 12, 1<<30, 100)
	l01 := b.AddLink("0>1", 9)
	l10 := b.AddLink("1>0", 14)
	l12 := b.AddLink("1>2", 6)
	l21 := b.AddLink("2>1", 11)
	b.SetRoute(n0, n1, l01)
	b.SetRoute(n1, n0, l10)
	b.SetRoute(n1, n2, l12)
	b.SetRoute(n2, n1, l21)
	b.SetRoute(n0, n2, l01, l12)
	b.SetRoute(n2, n0, l21, l10)
	return b.MustBuild()
}

// decodeFlows turns fuzz bytes into a machine and a flow set, four bytes
// per flow: source, destination, demand and stream count. Demands cover
// zero, negative, NaN, below-epsilon, fractional, saturating and infinite
// values; stream counts cover the sibling (-1), default (0) and explicit
// cases.
func decodeFlows(data []byte) (*topology.Machine, []Flow) {
	if len(data) == 0 {
		return fuzzMachines[0], nil
	}
	m := fuzzMachines[int(data[0])%len(fuzzMachines)]
	data = data[1:]
	n := m.NumNodes()
	var flows []Flow
	for ; len(data) >= 4 && len(flows) < 256; data = data[4:] {
		d := data[2]
		var demand float64
		switch {
		case d == 0:
			demand = 0
		case d < 16:
			demand = -float64(d)
		case d == 253:
			demand = math.NaN()
		case d == 254:
			demand = 1e-12
		case d == 255:
			demand = math.Inf(1)
		case d >= 250:
			demand = 1e6
		default:
			demand = float64(d) / 7
		}
		flows = append(flows, Flow{
			Src:     topology.NodeID(int(data[0]) % n),
			Dst:     topology.NodeID(int(data[1]) % n),
			Demand:  demand,
			Streams: int(data[3]%20) - 1,
			Tag:     len(flows),
		})
	}
	return m, flows
}

// sameBits fails unless got and want hold bit-identical values.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// sameResult holds a Solver result to the reference bit for bit.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	sameBits(t, "Rates", got.Rates, want.Rates)
	sameBits(t, "ControllerUtil", got.ControllerUtil, want.ControllerUtil)
	sameBits(t, "IngestUtil", got.IngestUtil, want.IngestUtil)
	sameBits(t, "LinkUtil", got.LinkUtil, want.LinkUtil)
	sameBits(t, "NodeOutGBs", got.NodeOutGBs, want.NodeOutGBs)
}

// FuzzSolverEquivalence holds Solver.Solve to the reference solver
// (referenceSolve) bit for bit on arbitrary flow sets. Each input is
// solved twice on one reused Solver, so stale scratch from the previous
// call cannot leak into the next. The seed corpus runs in a plain `go
// test`; `go test -fuzz FuzzSolverEquivalence ./internal/memsys`
// explores further.
func FuzzSolverEquivalence(f *testing.F) {
	f.Add([]byte{0})                                                        // Machine A, no flows
	f.Add([]byte{1, 0, 0, 0, 0})                                            // one zero-demand flow
	f.Add([]byte{2, 0, 2, 5, 1, 2, 0, 250, 4})                              // custom: negative demand, saturating two-hop flow
	f.Add([]byte{0, 0, 1, 100, 0, 0, 1, 100, 1, 3, 1, 250, 9})              // Machine A: streams 0 (one), -1 (none) and k
	f.Add([]byte{1, 7, 0, 250, 8, 6, 0, 250, 8, 5, 0, 250, 8})              // Machine B: three saturating remote readers
	f.Add([]byte{2, 0, 0, 30, 3, 1, 0, 60, 0, 2, 0, 90, 19, 2, 2, 7, 2})    // custom: mixed local and remote
	f.Add([]byte{1, 0, 1, 255, 4, 2, 1, 253, 4, 3, 1, 254, 4, 1, 1, 40, 4}) // Machine B: infinite, NaN and tiny demands
	for _, m := range fuzzMachines[:2] {
		// The shape of the loaded every-node-to-every-node flow set the
		// solver benchmark uses: saturating streamed flows plus small
		// sibling flows.
		data := []byte{0}
		if m == fuzzMachines[1] {
			data[0] = 1
		}
		for _, fl := range solverFlows(m) {
			d := byte(250)
			if fl.Streams < 0 {
				d = 16
			}
			data = append(data, byte(fl.Src), byte(fl.Dst), d, byte(fl.Streams+1))
		}
		f.Add(data)
	}

	sys := map[*topology.Machine]*Solver{}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, flows := decodeFlows(data)
		sv := sys[m]
		if sv == nil {
			sv = New(m, DefaultConfig()).NewSolver()
			sys[m] = sv
		}
		want := referenceSolve(sv.sys, flows)
		for round := 0; round < 2; round++ {
			sameResult(t, sv.Solve(flows), want)
		}
	})
}

// TestSolverMatchesReference pins the solver to the reference on the
// benchmark's loaded flow sets for both paper machines.
func TestSolverMatchesReference(t *testing.T) {
	for _, m := range fuzzMachines {
		s := New(m, DefaultConfig())
		flows := solverFlows(m)
		sameResult(t, s.NewSolver().Solve(flows), referenceSolve(s, flows))
	}
}
