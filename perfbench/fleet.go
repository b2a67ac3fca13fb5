package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"bwap"
)

// Fleet workload sizes at --size 1.
const (
	fleetMachines = 8
	// fleetSeed seeds the simulated fleet itself: engine noise and tuning
	// probes. It is fixed, so --seed varies only the workload the fleet
	// receives, not the machines that serve it.
	fleetSeed = 1
	// streams is how many job streams one seed yields. A run cycles
	// through them, so its medians average over inputs as well as over
	// repetitions and depend less on the one stream a seed happens to draw.
	streams = 4
	// steadyJobs at steadyRate jobs per simulated second keep 8 Machine-B
	// machines busy but below capacity, so few jobs queue.
	steadyJobs = 2400
	steadyRate = 0.06
	// coldJobs distinct classes arrive at coldRate, faster than the fleet
	// drains them at coldScale work, so the admission queue builds.
	coldJobs  = 1000
	coldRate  = 20.0
	coldScale = 0.05
	// readsPerIter exposition reads follow every fleet run.
	readsPerIter = 1000
	// setupReps fleets are built per run; the last one runs. A set-up
	// takes well under a millisecond and single ones spread by more than
	// their median, so setup_s is a median over many.
	setupReps = 60
	// steadyQueueMax and coldQueueMin bound the share of jobs that wait
	// in the admission queue, checked on every run. At full size
	// fleet-steady queues well under 1% of its jobs and fleet-cold over
	// 90%, so both bounds leave a wide margin.
	steadyQueueMax = 0.05
	coldQueueMin   = 0.5
	// probeKeys bounds the keys timed for cache.probe_ms.
	probeKeys = 24
)

// jobInput is one generated submission.
type jobInput struct {
	spec    bwap.Spec
	workers int
	scale   float64
	at      float64
}

// steadyInputs is a Poisson stream of the five Table I benchmarks in equal
// shares, at full work scale, on 1 or 2 nodes.
func steadyInputs(seed, stream uint64, n int) []jobInput {
	r := rand.New(rand.NewPCG(seed, 0x57ead1+stream))
	classes := bwap.Benchmarks()
	at := poissonTimes(r, n, steadyRate)
	jobs := make([]jobInput, n)
	for i, c := range shuffledShapes(r, n, len(classes)) {
		jobs[i] = jobInput{spec: classes[c.class], workers: c.workers, scale: 1, at: at[i]}
	}
	return jobs
}

// coldInputs is a burst of jobs that each carry a distinct workload class:
// a renamed Table I benchmark with its demand perturbed by up to ±5%, so
// every job has its own signature and costs one tuning probe while the
// offered work, and with it the queue, varies little with the seed.
func coldInputs(seed, stream uint64, n int) []jobInput {
	r := rand.New(rand.NewPCG(seed, 0xc01d+stream))
	classes := bwap.Benchmarks()
	at := poissonTimes(r, n, coldRate)
	jobs := make([]jobInput, n)
	for i, c := range shuffledShapes(r, n, len(classes)) {
		s := classes[c.class]
		s.Name = fmt.Sprintf("%s~%d", s.Name, i)
		s.ReadGBs *= 0.95 + 0.1*r.Float64()
		s.WriteGBs *= 0.95 + 0.1*r.Float64()
		jobs[i] = jobInput{spec: s, workers: c.workers, scale: coldScale, at: at[i]}
	}
	return jobs
}

// poissonTimes draws n Poisson arrival times at rate and rescales them so
// the last lands exactly at n/rate: the order and gaps vary with the seed,
// the offered load does not.
func poissonTimes(r *rand.Rand, n int, rate float64) []float64 {
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += r.ExpFloat64()
		at[i] = t
	}
	for i := range at {
		at[i] *= float64(n) / rate / t
	}
	return at
}

// shape is one job's class index and worker count.
type shape struct{ class, workers int }

// shuffledShapes returns n job shapes in which every (class, 1 or 2
// workers) pair has an equal share, shuffled, so the offered work does not
// drift with the seed.
func shuffledShapes(r *rand.Rand, n, classes int) []shape {
	s := make([]shape, n)
	for i := range s {
		k := i % (2 * classes)
		s[i] = shape{class: k % classes, workers: 1 + k/classes}
	}
	r.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// warmSnapshot probes every key the steady stream can demand — each class
// and worker count against 0 to 3 co-runners on a 4-node machine — and
// returns the cache snapshot a warm daemon would boot from.
func warmSnapshot() ([]byte, error) {
	topo := bwap.MachineB()
	tc := bwap.NewTuningCache(bwap.Config{}, 0, fleetSeed)
	for _, s := range bwap.Benchmarks() {
		for workers := 1; workers <= 2; workers++ {
			for co := 0; co < topo.NumNodes(); co++ {
				if _, _, err := tc.DWP(topo, s, workers, co); err != nil {
					return nil, fmt.Errorf("warm probe %s w%d c%d: %w", s.Name, workers, co, err)
				}
			}
		}
	}
	tc.Quiesce()
	return tc.SnapshotBytes()
}

func runFleetSteady(opts options, r *report) error {
	sets := make([][]jobInput, streams)
	for k := range sets {
		sets[k] = steadyInputs(opts.seed, uint64(k), scaled(steadyJobs, opts.size))
	}
	snap, err := warmSnapshot()
	if err != nil {
		return err
	}
	return runFleet(opts, r, sets, snap, queueShare{0, steadyQueueMax})
}

func runFleetCold(opts options, r *report) error {
	sets := make([][]jobInput, streams)
	for k := range sets {
		sets[k] = coldInputs(opts.seed, uint64(k), scaled(coldJobs, opts.size))
	}
	return runFleet(opts, r, sets, nil, queueShare{coldQueueMin, 1})
}

func scaled(n int, size float64) int { return max(10, int(float64(n)*size)) }

// fleetIter is what one set-up-and-run of a fleet workload measured.
type fleetIter struct {
	setup      []float64 // seconds per set-up; only the last is run
	wall       time.Duration
	completed  int
	simEnd     float64
	turnaround float64
	heapMB     float64
	sha        string
	set        int // index of the job stream this run used
	logBytes   int
	stamp      *logStamp // nil unless traced
	queued     int       // queue records in the event log
	reads      []float64
	stats      *bwap.FleetStats
	cache      bwap.TuningCacheStats
	probeSimS  float64
	layer      map[string]float64 // traced post-run timings
}

// fleetRun builds a fresh fleet (a fresh tuning cache, restored from snap
// when given, and an observer as in bwapd), submits the generated jobs,
// runs them to completion and checks the outcome.
func fleetRun(jobs []jobInput, snap []byte, traced bool, r *report) (*fleetIter, error) {
	runtime.GC()
	it := &fleetIter{}
	if traced {
		it.stamp = newLogStamp()
	}

	var fl *bwap.Fleet
	var tc *bwap.TuningCache
	var observer *bwap.FleetObserver
	for range setupReps {
		t0 := time.Now()
		tc = bwap.NewTuningCache(bwap.Config{}, 0, fleetSeed)
		if snap != nil {
			if _, err := tc.RestoreBytes(snap); err != nil {
				return nil, fmt.Errorf("restore snapshot: %w", err)
			}
		}
		observer = bwap.NewFleetObserver(bwap.FleetObserverConfig{})
		var err error
		fl, err = bwap.NewFleet(bwap.FleetConfig{
			Machines: fleetMachines, Seed: fleetSeed, Cache: tc, Obs: observer, LogW: it.stamp.logWriter(),
		})
		if err != nil {
			return nil, err
		}
		it.setup = append(it.setup, time.Since(t0).Seconds())
	}

	t1 := time.Now()
	for _, j := range jobs {
		if _, err := fl.Submit(j.spec, j.workers, j.scale, j.at); err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
	}
	if traced {
		it.stamp.mark()
	}
	st, err := fl.Run()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	it.wall = time.Since(t1)

	it.stats, it.completed, it.simEnd, it.turnaround = st, st.Completed, fl.Now(), st.MeanTurnaround
	it.cache = tc.Stats()
	if h := observer.ProbeLatency(); h.Count() > 0 {
		it.probeSimS = h.Mean()
	}
	r.attempted += len(jobs)
	r.failed += len(jobs) - st.Completed
	r.check(st.Jobs == len(jobs) && st.Completed == len(jobs),
		"%d of %d submitted jobs completed (%d recorded)", st.Completed, len(jobs), st.Jobs)
	if err := fl.Conservation(); err != nil {
		r.check(false, "conservation: %v", err)
	}
	log := fl.LogBytes()
	recs, err := bwap.DecodeFleetLog(log)
	r.check(err == nil && len(recs) == st.LogRecords,
		"log round-trip: %d records decoded of %d written (err %v)", len(recs), st.LogRecords, err)
	it.logBytes = len(log)
	it.queued = queueRecords(recs)
	sum := sha256.Sum256(log)
	it.sha = hex.EncodeToString(sum[:])

	var buf bytes.Buffer
	for range readsPerIter {
		buf.Reset()
		t := time.Now()
		_ = fl.Stats()
		if err := fl.WriteMetrics(&buf); err != nil {
			return nil, fmt.Errorf("write metrics: %w", err)
		}
		it.reads = append(it.reads, ms(time.Since(t)))
	}
	if traced {
		it.layer = exposeTimings(tc, observer)
	}
	it.heapMB = liveHeapMB()
	runtime.KeepAlive(fl)
	return it, nil
}

// exposeTimings times the cache snapshot round trip and the observer's
// exposition on a drained fleet.
func exposeTimings(tc *bwap.TuningCache, o *bwap.FleetObserver) map[string]float64 {
	const reps = 15
	var snapMs, restoreMs, writeMs, tlMs []float64
	var buf bytes.Buffer
	for range reps {
		t := time.Now()
		snap, err := tc.SnapshotBytes()
		snapMs = append(snapMs, ms(time.Since(t)))
		if err == nil {
			fresh := bwap.NewTuningCache(bwap.Config{}, 0, fleetSeed)
			t = time.Now()
			_, _ = fresh.RestoreBytes(snap)
			restoreMs = append(restoreMs, ms(time.Since(t)))
		}
		buf.Reset()
		t = time.Now()
		_ = o.WriteMetrics(&buf)
		writeMs = append(writeMs, ms(time.Since(t)))
		t = time.Now()
		_ = o.TimelineSnapshot(0)
		tlMs = append(tlMs, ms(time.Since(t)))
	}
	return map[string]float64{
		"cache.snapshot_ms":    median(snapMs),
		"cache.restore_ms":     median(restoreMs),
		"obs.write_metrics_ms": median(writeMs),
		"obs.timeline_ms":      median(tlMs),
	}
}

// iterate calls run(0), run(1), ... until budget is spent, stopping early
// when the next call would overrun it, but always making at least
// minIters calls.
func iterate(budget time.Duration, minIters int, run func(i int) (*fleetIter, error)) ([]*fleetIter, error) {
	start := time.Now()
	var out []*fleetIter
	var last time.Duration
	for len(out) < minIters || time.Since(start)+last <= budget {
		t := time.Now()
		v, err := run(len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		last = time.Since(t)
	}
	return out, nil
}

// queueShare is the range the share of a workload's jobs that wait in the
// admission queue must fall in: the load level the workload's reason
// rests on, checked on every run.
type queueShare struct{ min, max float64 }

func runFleet(opts options, r *report, sets [][]jobInput, snap []byte, load queueShare) error {
	budget := time.Duration(opts.seconds * float64(time.Second))
	run := func(traced bool) func(i int) (*fleetIter, error) {
		return func(i int) (*fleetIter, error) {
			it, err := fleetRun(sets[i%len(sets)], snap, traced, r)
			if err == nil {
				it.set = i % len(sets)
			}
			return it, err
		}
	}
	// One untimed run first, so lazily allocated memory and code paths are
	// warm before timing; its checks still count.
	if _, err := run(false)(0); err != nil {
		return err
	}
	if !opts.trace {
		its, err := iterate(budget, len(sets), run(false))
		if err != nil {
			return err
		}
		checkDeterministic(r, its, len(sets))
		checkLoad(r, its, sets, load)
		reportFleetE2E(r, its, len(sets))
		return nil
	}
	base, err := iterate(budget/2, len(sets), run(false))
	if err != nil {
		return err
	}
	traced, err := iterate(budget/2, len(sets), run(true))
	if err != nil {
		return err
	}
	a, b := checkDeterministic(r, base, len(sets)), checkDeterministic(r, traced, len(sets))
	r.check(a == b, "traced runs wrote other event logs than untraced runs")
	checkLoad(r, traced, sets, load)
	layer := map[string]float64{
		"bench.trace_overhead_frac": median(walls(traced))/median(walls(base)) - 1,
	}
	if err := coreTimings(sets[0], layer); err != nil {
		return err
	}
	reportFleetLayers(r, traced, layer)
	return nil
}

func walls(its []*fleetIter) []float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, it.wall.Seconds())
	}
	return xs
}

// checkDeterministic requires every run of one stream to write the same
// event log and reach the same mean turnaround, and returns one digest of
// all streams' logs: the SHA-256 of their SHA-256s in stream order.
func checkDeterministic(r *report, its []*fleetIter, sets int) string {
	first := make([]*fleetIter, sets)
	for _, it := range its {
		f := first[it.set]
		if f == nil {
			first[it.set] = it
			continue
		}
		r.check(it.sha == f.sha, "stream %d: event log differs between runs: %s vs %s", it.set, it.sha, f.sha)
		r.check(it.turnaround == f.turnaround, "stream %d: turnaround differs between runs", it.set)
	}
	h := sha256.New()
	for _, f := range first {
		h.Write([]byte(f.sha))
	}
	sum := hex.EncodeToString(h.Sum(nil))
	r.note("log_sha256 %s (%d streams, %d runs agree)", sum, sets, len(its))
	return sum
}

// checkLoad requires every stream's queued share to lie in load; the
// share is deterministic per stream, so the first run of each decides.
func checkLoad(r *report, its []*fleetIter, sets [][]jobInput, load queueShare) {
	var shares []float64
	for _, it := range its[:len(sets)] {
		share := float64(it.queued) / float64(len(sets[it.set]))
		shares = append(shares, share)
		r.check(share >= load.min && share <= load.max,
			"stream %d: %.3g of jobs queued, outside this workload's load range [%g, %g]", it.set, share, load.min, load.max)
	}
	r.note("queued share by stream: %s(range [%g, %g])", fmtList(shares), load.min, load.max)
}

// coreTimings times the tuning layers from outside on a fresh cache:
// canonical profiling per worker set and one DWP probe per distinct key.
func coreTimings(jobs []jobInput, layer map[string]float64) error {
	topo := bwap.MachineB()
	tc := bwap.NewTuningCache(bwap.Config{}, 0, fleetSeed)
	ct := tc.Canonical(topo)
	var canon []float64
	n := topo.NumNodes()
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			ws := []bwap.NodeID{bwap.NodeID(a)}
			if b != a {
				ws = append(ws, bwap.NodeID(b))
			}
			t := time.Now()
			if _, err := ct.Weights(ws); err != nil {
				return fmt.Errorf("canonical weights %v: %w", ws, err)
			}
			canon = append(canon, ms(time.Since(t)))
		}
	}
	seen := map[string]bool{}
	var probe []float64
	for _, j := range jobs {
		key := tc.Key(topo, j.spec, j.workers, 0)
		if seen[key] || len(probe) == probeKeys {
			continue
		}
		seen[key] = true
		t := time.Now()
		if _, _, err := tc.DWP(topo, j.spec, j.workers, 0); err != nil {
			return fmt.Errorf("probe %s: %w", j.spec.Name, err)
		}
		probe = append(probe, ms(time.Since(t)))
	}
	tc.Quiesce()
	layer["core.canonical_ms"] = median(canon)
	layer["cache.probe_ms"] = median(probe)
	return nil
}

func reportFleetE2E(r *report, its []*fleetIter, sets int) {
	var setup, jps, sps, heap, reads, rp50 []float64
	for _, it := range its {
		rp50 = append(rp50, median(it.reads))
		setup = append(setup, it.setup...)
		jps = append(jps, float64(it.completed)/it.wall.Seconds())
		sps = append(sps, it.simEnd/it.wall.Seconds())
		heap = append(heap, it.heapMB)
		reads = append(reads, it.reads...)
	}
	r.note("  jobs_per_s by run: %s", fmtList(jps))
	perIter := func(xs []float64) string {
		return fmt.Sprintf("(median of %d runs, spread %.3g, range %.5g..%.5g)", len(xs), spread(xs), slices.Min(xs), slices.Max(xs))
	}
	r.set("setup_s", "s", median(setup), fmt.Sprintf("(median of %d set-ups, spread %.3g)", len(setup), spread(setup)))
	r.set("jobs_per_s", "jobs/s", median(jps), perIter(jps))
	r.set("sim_s_per_s", "sim_s/s", median(sps), perIter(sps))
	turnaround := 0.0
	for _, it := range its[:sets] {
		turnaround += it.turnaround / float64(sets)
	}
	r.set("sim_turnaround_s", "sim_s", turnaround, fmt.Sprintf("(mean arrival-to-finish over %d streams, deterministic per seed)", sets))
	r.set("live_heap_mb", "MB", median(heap), perIter(heap))
	r.set("read_p50_ms", "ms", median(rp50), perIter(rp50))
	r.note("  Stats+WriteMetrics, all runs pooled %s", tail(reads))
	r.note("read_p99_ms %.4g ms (reported, not gated)", quantile(reads, 0.99))
	r.note("%s", r.failedFrac())
}

func reportFleetLayers(r *report, its []*fleetIter, layer map[string]float64) {
	med := func(f func(*fleetIter) float64) float64 {
		var xs []float64
		for _, it := range its {
			xs = append(xs, f(it))
		}
		return median(xs)
	}
	fleetLayers(layer, med)
	for _, k := range []string{"cache.snapshot_ms", "cache.restore_ms", "obs.write_metrics_ms", "obs.timeline_ms"} {
		layer[k] = med(func(it *fleetIter) float64 { return it.layer[k] })
	}
	// A fleet workload makes no HTTP requests and paces nothing.
	for _, k := range []string{"server.submit_ms", "server.status_ms", "server.metrics_ms",
		"server.outside_ms", "server.sim_pace", "bench.gen_late_ms"} {
		layer[k] = 0
	}
	reportLayers(r, layer)
}

// fleetLayers derives the fleet, sim and cache per-layer metrics from the
// per-run figures, taking med over the traced runs.
func fleetLayers(layer map[string]float64, med func(func(*fleetIter) float64) float64) {
	layer["fleet.advance_s"] = med(func(it *fleetIter) float64 { return it.stamp.advance.Seconds() })
	layer["fleet.event_s"] = med(func(it *fleetIter) float64 { return it.stamp.event.Seconds() })
	layer["fleet.ticks"] = med(func(it *fleetIter) float64 { return float64(it.stats.AdvanceTicks) })
	layer["fleet.windows"] = med(func(it *fleetIter) float64 { return float64(it.stats.AdvanceBatches) })
	layer["fleet.mean_window_ticks"] = med(func(it *fleetIter) float64 {
		return ratio(float64(it.stats.AdvanceTicks), float64(it.stats.AdvanceBatches))
	})
	layer["fleet.host_us_per_tick"] = med(func(it *fleetIter) float64 {
		return ratio(it.stamp.advance.Seconds()*1e6, float64(it.stats.AdvanceTicks))
	})
	layer["fleet.queued_jobs"] = med(func(it *fleetIter) float64 { return float64(it.queued) })
	layer["fleet.log_records"] = med(func(it *fleetIter) float64 { return float64(it.stats.LogRecords) })
	layer["fleet.log_bytes"] = med(func(it *fleetIter) float64 { return float64(it.logBytes) })
	layer["sim.tick_solves"] = med(func(it *fleetIter) float64 { return float64(it.stats.TickSolves) })
	layer["sim.tick_replays"] = med(func(it *fleetIter) float64 { return float64(it.stats.TickReplays) })
	layer["sim.replay_frac"] = med(func(it *fleetIter) float64 {
		return ratio(float64(it.stats.TickReplays), float64(it.stats.TickSolves+it.stats.TickReplays))
	})
	layer["cache.hits"] = med(func(it *fleetIter) float64 { return float64(it.cache.Hits) })
	layer["cache.misses"] = med(func(it *fleetIter) float64 { return float64(it.cache.Misses) })
	layer["cache.hit_frac"] = med(func(it *fleetIter) float64 {
		return ratio(float64(it.cache.Hits), float64(it.cache.Hits+it.cache.Misses))
	})
	layer["cache.prefetch_unused_frac"] = med(func(it *fleetIter) float64 {
		probed := float64(it.cache.Entries) - float64(it.cache.Restored)
		return ratio(probed-float64(it.cache.Misses), probed)
	})
	layer["core.probe_sim_s"] = med(func(it *fleetIter) float64 { return it.probeSimS })
}

// queueRecords counts the queue records of an event log: one per job
// that waited for admission.
func queueRecords(recs []bwap.FleetRecord) int {
	n := 0
	for _, rec := range recs {
		if rec.Type == "queue" {
			n++
		}
	}
	return n
}

// liveHeapMB is the heap in use after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / 1e6
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64) string {
	var b []byte
	for _, x := range xs {
		b = fmt.Appendf(b, "%.5g ", x)
	}
	return string(b)
}
