// Package memsys models the contended memory system of a NUMA machine.
//
// Given a set of flows — (source memory node → destination worker node)
// pairs with a bandwidth demand — it computes the rates the flows actually
// achieve under demand-bounded max-min fairness (progressive filling) over
// three resource classes:
//
//   - the source node's memory controller (local/remote contention),
//   - every directed interconnect link on the flow's route (congestion),
//   - the destination node's core ingest capacity.
//
// This is the substrate behind the paper's Equations 1–5: the "parallel
// transfers, slowest transfer dominates" abstraction is exactly what
// max-min fair sharing produces when a worker spreads demand across nodes.
//
// Two refinements model the non-linearities Section III-A3 cites:
//
//   - controller efficiency shrinks with the number of distinct streams
//     contending at a controller (row-buffer/bank interference, DraMon [30]);
//   - write traffic costs more than read traffic at the controller
//     (callers fold writes in via EquivalentDemand).
package memsys

import (
	"fmt"
	"math"

	"bwap/internal/topology"
)

// Flow is one directed bandwidth demand: threads on Dst reading (and
// writing) pages that live on Src at up to Demand GB/s of
// controller-equivalent traffic.
type Flow struct {
	Src, Dst topology.NodeID
	// Demand is the controller-equivalent demand in GB/s (reads plus
	// write-penalty-weighted writes; see EquivalentDemand).
	Demand float64
	// Streams is the number of distinct hardware streams (threads) behind
	// this flow; it feeds the source controller's multi-stream efficiency
	// model. Zero is treated as one stream; a negative value contributes no
	// streams (used when the same threads are already counted by a sibling
	// flow of the same application and worker).
	Streams int
	// Tag is opaque caller context (e.g. which app and page class the flow
	// belongs to); the solver ignores it.
	Tag int
}

// streamCount returns the effective stream count of a flow.
func (f Flow) streamCount() int {
	switch {
	case f.Streams < 0:
		return 0
	case f.Streams == 0:
		return 1
	default:
		return f.Streams
	}
}

// Config tunes the contention model.
type Config struct {
	// StreamPenalty is the per-extra-stream controller efficiency loss
	// coefficient: eff(k) = Floor + (1-Floor)/(1+StreamPenalty*(k-1)).
	StreamPenalty float64
	// EfficiencyFloor bounds how far multi-stream interference can degrade
	// a controller.
	EfficiencyFloor float64
	// WritePenalty is the controller cost multiplier for write bytes,
	// applied by EquivalentDemand.
	WritePenalty float64
}

// DefaultConfig returns the model parameters used across the reproduction.
// StreamPenalty/Floor are chosen so that a fully loaded 8-thread node keeps
// roughly 80% of its single-stream controller bandwidth, consistent with
// the saturation behaviour the paper observes for OC/ON/FT.C private
// traffic; WritePenalty reflects DRAM write turnaround cost.
func DefaultConfig() Config {
	return Config{
		StreamPenalty:   0.035,
		EfficiencyFloor: 0.70,
		WritePenalty:    1.5,
	}
}

// EquivalentDemand folds a read/write demand pair into a single
// controller-equivalent GB/s figure.
func (c Config) EquivalentDemand(readGBs, writeGBs float64) float64 {
	return readGBs + c.WritePenalty*writeGBs
}

// Efficiency returns the controller efficiency for k contending streams.
func (c Config) Efficiency(k int) float64 {
	if k <= 1 {
		return 1
	}
	eff := c.EfficiencyFloor + (1-c.EfficiencyFloor)/(1+c.StreamPenalty*float64(k-1))
	return eff
}

// System solves flow sets against one machine. It is reusable and
// goroutine-safe for concurrent Solve calls (all state is per-call).
type System struct {
	m   *topology.Machine
	cfg Config
}

// New returns a System for the machine with the given model configuration.
func New(m *topology.Machine, cfg Config) *System {
	return &System{m: m, cfg: cfg}
}

// Machine returns the underlying machine description.
func (s *System) Machine() *topology.Machine { return s.m }

// Config returns the contention model configuration.
func (s *System) Config() Config { return s.cfg }

// Result reports the outcome of one Solve call.
type Result struct {
	// Rates holds the achieved GB/s of each flow, in input order.
	Rates []float64
	// ControllerUtil is the per-node memory controller utilization in
	// [0,1] relative to effective (efficiency-scaled) capacity.
	ControllerUtil []float64
	// IngestUtil is the per-node core ingest utilization in [0,1].
	IngestUtil []float64
	// LinkUtil is the per-link utilization in [0,1].
	LinkUtil []float64
	// NodeOutGBs is the achieved outbound (read-side) traffic per source
	// node; this is what the per-node DRAM throughput counters expose and
	// what the canonical tuner profiles.
	NodeOutGBs []float64
}

// TotalRate returns the sum of all achieved flow rates.
func (r *Result) TotalRate() float64 {
	total := 0.0
	for _, v := range r.Rates {
		total += v
	}
	return total
}

// Solve computes demand-bounded max-min fair rates for the given flows.
// Flows with non-positive demand get rate 0. The algorithm is progressive
// filling: all unfrozen flows grow at the same rate until either a flow's
// demand is met (it freezes satisfied) or a resource saturates (all flows
// through it freeze bottlenecked); repeat until every flow is frozen.
//
// Each call allocates a fresh Solver, which keeps System goroutine-safe.
// Callers on a hot loop should hold their own Solver and call its Solve,
// which reuses all scratch state and allocates nothing at steady state.
func (s *System) Solve(flows []Flow) *Result {
	return s.NewSolver().Solve(flows)
}

// Solver computes max-min fair rates against one System while reusing all
// intermediate state across calls. It is not safe for concurrent use; give
// each goroutine its own Solver (the simulation engine owns one per run).
type Solver struct {
	sys *System

	// Per-resource scratch, sized once at construction. Resources are
	// indexed as in topology.Machine.ResourcePath.
	capacity []float64
	initial  []float64
	streams  []int
	load     []int32
	touched  []int32 // resources some unfrozen flow crosses, ascending

	// Per-flow scratch, grown on demand and reused.
	paths     [][]int32 // flow i's resource list, shared with the Machine
	remaining []float64
	activeIdx []int32 // indices of unfrozen flows, ascending

	res Result
	// epoch counts Solve calls, so a caller holding the returned *Result
	// can prove it still describes the most recent solve.
	epoch uint64
}

// NewSolver returns a reusable solver for the system. The float64 scratch
// and result slices are carved from one backing array (full slice
// expressions keep them from growing into each other): the fleet scheduler
// creates an engine — and with it a solver — per placement evaluation, so
// construction cost is on the hot path.
func (s *System) NewSolver() *Solver {
	n := s.m.NumNodes()
	rc := s.m.NumResources()
	nl := s.m.NumLinks()
	f := make([]float64, 2*rc+3*n+nl)
	capacity, f := f[:rc:rc], f[rc:]
	initial, f := f[:rc:rc], f[rc:]
	cu, f := f[:n:n], f[n:]
	iu, f := f[:n:n], f[n:]
	lu, f := f[:nl:nl], f[nl:]
	ld := make([]int32, 2*rc)
	return &Solver{
		sys:      s,
		capacity: capacity,
		initial:  initial,
		streams:  make([]int, n),
		load:     ld[:rc:rc],
		touched:  ld[rc:rc],
		res: Result{
			ControllerUtil: cu,
			IngestUtil:     iu,
			LinkUtil:       lu,
			NodeOutGBs:     f,
		},
	}
}

// Epoch returns the number of Solve calls performed on this solver. The
// *Result a Solve returns is the solver's reusable buffer — stable in
// identity, overwritten by the next Solve — so a cached pointer is valid
// exactly while the epoch captured alongside it is unchanged. This is the
// contract the simulation engine's quiescent-interval fast-forward relies
// on to replay a solve bit for bit.
func (sv *Solver) Epoch() uint64 { return sv.epoch }

// Solve computes demand-bounded max-min fair rates for the given flows.
// The returned Result shares the solver's buffers: it is valid only until
// the next Solve call on this solver.
func (sv *Solver) Solve(flows []Flow) *Result {
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

	// Per-flow resource lists (the machine's memoized paths; only active
	// flows' entries are meaningful) and the active-flow index list.
	paths := grow(sv.paths, len(flows))
	sv.paths = paths
	sv.remaining = grow(sv.remaining, len(flows))
	sv.activeIdx = sv.activeIdx[:0]
	for i, f := range flows {
		if f.Demand > 0 {
			paths[i] = s.m.ResourcePath(f.Src, f.Dst)
			sv.remaining[i] = f.Demand
			sv.activeIdx = append(sv.activeIdx, int32(i))
		}
	}

	// Progressive filling. The per-resource active-flow counts (load) are
	// maintained incrementally: initialized once, decremented along a
	// flow's path when it freezes — no per-round rescan of the flow set.
	load := sv.load
	clear(load)
	for _, i := range sv.activeIdx {
		for _, r := range paths[i] {
			load[r]++
		}
	}
	// The per-round minimum visits only the resources some active flow
	// crosses, in ascending index order — the same shares in the same
	// order as a scan of the whole table, which skips unloaded resources.
	// A resource whose load drops to zero never regains it and leaves the
	// list.
	touched := sv.touched[:0]
	for r, k := range load {
		if k > 0 {
			touched = append(touched, int32(r))
		}
	}
	// minRem is the smallest remaining demand among active flows. Active
	// demands are positive, so the minimum is one value whichever flow
	// holds it; each round's freeze pass computes the next round's.
	minRem := math.Inf(1)
	for _, i := range sv.activeIdx {
		if sv.remaining[i] < minRem {
			minRem = sv.remaining[i]
		}
	}
	const eps = 1e-9
	for len(sv.activeIdx) > 0 {
		// The uniform increment every active flow can take.
		inc := math.Inf(1)
		live := touched[:0]
		for _, r := range touched {
			if k := load[r]; k > 0 {
				if share := capacity[r] / float64(k); share < inc {
					inc = share
				}
				live = append(live, r)
			}
		}
		touched = live
		if minRem < inc {
			inc = minRem
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment. Each active flow takes inc off every
		// resource on its path; all decrements are the same value, so a
		// resource carrying k active flows goes through the same k
		// subtractions in any order, and they are applied per resource.
		saturated := false
		for _, r := range touched {
			c := capacity[r]
			for k := load[r]; k > 0; k-- {
				c -= inc
			}
			capacity[r] = c
			if c <= eps {
				saturated = true
			}
		}
		// Grow every active flow, then freeze satisfied flows and flows on
		// saturated resources, compacting the active list in place (order
		// is preserved). The touched list holds every resource on an
		// active flow's path, so with none saturated only satisfied flows
		// freeze.
		kept := sv.activeIdx[:0]
		minRem = math.Inf(1)
		for _, i := range sv.activeIdx {
			res.Rates[i] += inc
			rem := sv.remaining[i] - inc
			sv.remaining[i] = rem
			frozen := rem <= eps
			if !frozen && saturated {
				for _, r := range paths[i] {
					if capacity[r] <= eps {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, r := range paths[i] {
					load[r]--
				}
			} else {
				kept = append(kept, i)
				if rem < minRem {
					minRem = rem
				}
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

// grow returns s resized to n, reusing capacity; new elements are zeroed
// only where Go's append semantics leave them stale, so callers must reset
// any state they rely on.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/2)
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// PairwiseBW measures the single-stream bandwidth from src to dst — the
// procedure behind Figure 1a: one saturating flow, nothing else running.
func (s *System) PairwiseBW(src, dst topology.NodeID) float64 {
	r := s.Solve([]Flow{{Src: src, Dst: dst, Demand: 1e6}})
	return r.Rates[0]
}

// MeasuredMatrix returns the full pairwise single-stream bandwidth matrix.
func (s *System) MeasuredMatrix() [][]float64 {
	n := s.m.NumNodes()
	out := make([][]float64, n)
	for src := 0; src < n; src++ {
		out[src] = make([]float64, n)
		for dst := 0; dst < n; dst++ {
			out[src][dst] = s.PairwiseBW(topology.NodeID(src), topology.NodeID(dst))
		}
	}
	return out
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.StreamPenalty < 0 {
		return fmt.Errorf("memsys: negative stream penalty %v", c.StreamPenalty)
	}
	if c.EfficiencyFloor <= 0 || c.EfficiencyFloor > 1 {
		return fmt.Errorf("memsys: efficiency floor %v out of (0,1]", c.EfficiencyFloor)
	}
	if c.WritePenalty < 1 {
		return fmt.Errorf("memsys: write penalty %v below 1", c.WritePenalty)
	}
	return nil
}
