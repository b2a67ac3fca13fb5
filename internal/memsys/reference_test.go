package memsys

import (
	"math"

	"bwap/internal/topology"
)

// refSolver is the progressive-filling solver as it stood before the
// per-machine resource paths and the touched-resource minimum scan: every
// solve rebuilds each flow's resource list from Machine.Route into a flat
// buffer, and every round scans the whole resource table for the
// tightest share. It is kept verbatim as the oracle FuzzSolverEquivalence
// and TestSolverMatchesReference hold Solver.Solve to, bit for bit.
type refSolver struct {
	sys *System

	capacity []float64
	initial  []float64
	streams  []int
	load     []int32

	pathBuf   []int32
	pathOff   []int32
	remaining []float64
	activeIdx []int32

	res   Result
	epoch uint64
}

// referenceSolve runs the reference solver on a fresh scratch set.
func referenceSolve(s *System, flows []Flow) *Result {
	n := s.m.NumNodes()
	rc := s.m.NumResources()
	sv := &refSolver{
		sys:      s,
		capacity: make([]float64, rc),
		initial:  make([]float64, rc),
		streams:  make([]int, n),
		load:     make([]int32, rc),
		res: Result{
			ControllerUtil: make([]float64, n),
			IngestUtil:     make([]float64, n),
			LinkUtil:       make([]float64, s.m.NumLinks()),
			NodeOutGBs:     make([]float64, n),
		},
	}
	return sv.solve(flows)
}

func (sv *refSolver) path(i int32) []int32 {
	return sv.pathBuf[sv.pathOff[i]:sv.pathOff[i+1]]
}

func (sv *refSolver) solve(flows []Flow) *Result {
	s := sv.sys
	n := s.m.NumNodes()
	sv.epoch++
	res := &sv.res
	res.Rates = grow(res.Rates, len(flows))
	zero(res.Rates)
	zero(res.ControllerUtil)
	zero(res.IngestUtil)
	zero(res.LinkUtil)
	zero(res.NodeOutGBs)
	if len(flows) == 0 {
		return res
	}

	// Effective controller capacity given stream counts.
	for i := range sv.streams {
		sv.streams[i] = 0
	}
	for _, f := range flows {
		if f.Demand > 0 {
			sv.streams[f.Src] += f.streamCount()
		}
	}
	capacity := sv.capacity
	for i := 0; i < n; i++ {
		node := s.m.Node(topology.NodeID(i))
		capacity[i] = node.ControllerGBs * s.cfg.Efficiency(sv.streams[i])
		capacity[n+i] = s.m.IngestGBs()
	}
	for l := 0; l < s.m.NumLinks(); l++ {
		capacity[2*n+l] = s.m.Link(topology.LinkID(l)).CapacityGBs
	}
	initial := sv.initial
	copy(initial, capacity)

	// Per-flow resource lists (flat) and the active-flow index list.
	sv.pathOff = grow(sv.pathOff, len(flows)+1)
	sv.remaining = grow(sv.remaining, len(flows))
	sv.activeIdx = sv.activeIdx[:0]
	sv.pathBuf = sv.pathBuf[:0]
	sv.pathOff[0] = 0
	for i, f := range flows {
		if f.Demand > 0 {
			sv.pathBuf = append(sv.pathBuf, int32(f.Src), int32(n+int(f.Dst)))
			for _, l := range s.m.Route(f.Src, f.Dst) {
				sv.pathBuf = append(sv.pathBuf, int32(2*n+int(l)))
			}
			sv.remaining[i] = f.Demand
			sv.activeIdx = append(sv.activeIdx, int32(i))
		}
		sv.pathOff[i+1] = int32(len(sv.pathBuf))
	}

	// Progressive filling. The per-resource active-flow counts (load) are
	// maintained incrementally: initialized once, decremented along a
	// flow's path when it freezes — no per-round rescan of the flow set.
	load := sv.load
	for r := range load {
		load[r] = 0
	}
	for _, i := range sv.activeIdx {
		for _, r := range sv.path(i) {
			load[r]++
		}
	}
	const eps = 1e-9
	for len(sv.activeIdx) > 0 {
		// The uniform increment every active flow can take.
		inc := math.Inf(1)
		for r, k := range load {
			if k > 0 {
				if share := capacity[r] / float64(k); share < inc {
					inc = share
				}
			}
		}
		for _, i := range sv.activeIdx {
			if sv.remaining[i] < inc {
				inc = sv.remaining[i]
			}
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment.
		for _, i := range sv.activeIdx {
			res.Rates[i] += inc
			sv.remaining[i] -= inc
			for _, r := range sv.path(i) {
				capacity[r] -= inc
			}
		}
		// Freeze satisfied flows and flows on saturated resources,
		// compacting the active list in place (order is preserved).
		kept := sv.activeIdx[:0]
		for _, i := range sv.activeIdx {
			frozen := sv.remaining[i] <= eps
			if !frozen {
				for _, r := range sv.path(i) {
					if capacity[r] <= eps {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, r := range sv.path(i) {
					load[r]--
				}
			} else {
				kept = append(kept, i)
			}
		}
		if len(kept) == len(sv.activeIdx) {
			// Defensive: cannot happen (inc always exhausts a demand or a
			// resource), but never loop forever on numerical corner cases.
			sv.activeIdx = kept
			break
		}
		sv.activeIdx = kept
	}

	// Utilizations and per-node outbound counters.
	for i, f := range flows {
		if res.Rates[i] > 0 {
			res.NodeOutGBs[f.Src] += res.Rates[i]
		}
	}
	for i := 0; i < n; i++ {
		if initial[i] > 0 {
			res.ControllerUtil[i] = (initial[i] - capacity[i]) / initial[i]
		}
		if initial[n+i] > 0 {
			res.IngestUtil[i] = (initial[n+i] - capacity[n+i]) / initial[n+i]
		}
	}
	for l := 0; l < s.m.NumLinks(); l++ {
		r := 2*n + l
		if initial[r] > 0 {
			res.LinkUtil[l] = (initial[r] - capacity[r]) / initial[r]
		}
	}
	return res
}
