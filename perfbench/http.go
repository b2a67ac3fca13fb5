package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bwap"
)

// bwapd-http sizes at --size 1.
const (
	// openRate requests per wall second arrive on a fixed schedule. With
	// the mix below that is about 160 jobs per wall second, 1.6 jobs per
	// simulated second at the server's default SimRate of 100: below the
	// fleet's capacity, so its queue does not grow during the open phase.
	openRate = 250.0
	// openScale is the work scale of open-loop jobs. closedScale is far
	// smaller, so the closed loop's saturation rate stays below the
	// fleet's capacity, its queue stays empty and the rate is stationary.
	openScale   = 0.02
	closedScale = 0.001
	// bootReps daemons are booted per round; the last one serves. There
	// is one round per run, so setup_s is a median over these boots.
	bootReps = 200
	// queueMax bounds the fleet's admission queue, sampled every
	// queueEvery during the open phase: the open loop must stay below
	// capacity. At full size the samples read 0.
	queueMax = 8
	// batchCount jobs ride in one batch submit.
	batchCount = 4
	// openShare and closedShare split a round's wall budget; the rest is
	// left for set-up and the drain.
	openShare   = 0.35
	closedShare = 0.5
)

// reqKind is one entry of the open-loop mix.
type reqKind int

const (
	kindSubmit  reqKind = iota // one job of a Table I class
	kindUnseen                 // one job of a class no cache holds: probes inside the POST
	kindBatch                  // batchCount jobs of a Table I class
	kindStatus                 // GET /status of a random accepted job
	kindMetrics                // GET /metrics
)

// request is one generated open-loop request.
type request struct {
	kind    reqKind
	due     time.Duration // offset from the phase start
	spec    bwap.Spec     // submitted class
	workers int
	body    []byte  // submit body
	pick    float64 // picks the /status job among those accepted so far
}

// openRequests is the fixed-rate open-loop schedule: 55% single submits,
// 1% unseen-class submits, 2% batch submits, 27% /status reads, 15%
// /metrics scrapes. The first requests are submits so /status always has
// a job to read.
func openRequests(seed uint64, n int) []request {
	r := rand.New(rand.NewPCG(seed, 0x0be2))
	classes := bwap.Benchmarks()
	reqs := make([]request, n)
	for i := range reqs {
		q := &reqs[i]
		q.due = time.Duration(float64(i) / openRate * float64(time.Second))
		u := r.Float64()
		switch {
		case u < 0.55 || i < 8:
			q.kind = kindSubmit
		case u < 0.56:
			q.kind = kindUnseen
		case u < 0.58:
			q.kind = kindBatch
		case u < 0.85:
			q.kind = kindStatus
		default:
			q.kind = kindMetrics
		}
		q.spec = classes[r.IntN(len(classes))]
		q.workers = 1 + r.IntN(2)
		q.pick = r.Float64()
		switch q.kind {
		case kindSubmit:
			q.body = submitBody(q.spec.Name, nil, q.workers, 1, openScale)
		case kindBatch:
			q.body = submitBody(q.spec.Name, nil, q.workers, batchCount, openScale)
		case kindUnseen:
			q.spec.Name = fmt.Sprintf("%s~u%d", q.spec.Name, i)
			q.spec.ReadGBs *= 0.8 + 0.4*r.Float64()
			q.spec.WriteGBs *= 0.8 + 0.4*r.Float64()
			q.body = submitBody("", &q.spec, q.workers, 1, openScale)
		}
	}
	return reqs
}

func submitBody(name string, spec *bwap.Spec, workers, count int, scale float64) []byte {
	b, _ := json.Marshal(struct {
		Workload  string     `json:"workload,omitempty"`
		Spec      *bwap.Spec `json:"spec,omitempty"`
		Workers   int        `json:"workers"`
		WorkScale float64    `json:"work_scale"`
		Count     int        `json:"count"`
	}{name, spec, workers, scale, count})
	return b
}

// daemon is one bwapd instance on a loopback listener.
type daemon struct {
	fleet    *bwap.Fleet
	cache    *bwap.TuningCache
	observer *bwap.FleetObserver
	server   *bwap.FleetServer
	stamp    *logStamp   // nil unless traced
	timing   *routeTimer // nil unless traced
	http     *http.Server
	served   chan error
	base     string
}

// startDaemon boots bwapd as its main does with a warm cache file and
// -obs: restore the snapshot, attach the observer, listen, start the
// clock driver.
func startDaemon(snap []byte, traced bool) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	if traced {
		d.stamp = newLogStamp()
	}
	d.cache = bwap.NewTuningCache(bwap.Config{}, 0, fleetSeed)
	if _, err := d.cache.RestoreBytes(snap); err != nil {
		return nil, fmt.Errorf("restore snapshot: %w", err)
	}
	d.observer = bwap.NewFleetObserver(bwap.FleetObserverConfig{})
	fl, err := bwap.NewFleet(bwap.FleetConfig{
		Machines: fleetMachines, Seed: fleetSeed, Cache: d.cache, Obs: d.observer, LogW: d.stamp.logWriter(),
	})
	if err != nil {
		return nil, err
	}
	d.fleet = fl
	d.server = bwap.NewFleetServer(fl)
	handler := d.server.Handler()
	if traced {
		d.timing = &routeTimer{next: handler}
		handler = d.timing
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: handler}
	go func() { d.served <- d.http.Serve(ln) }()
	d.server.Start()
	return d, nil
}

// stop halts the clock driver and the listener and waits for both.
func (d *daemon) stop() error {
	d.server.Stop()
	if err := d.http.Close(); err != nil {
		return err
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// routeTimer is the traced run's middleware: it times the daemon's own
// handler per route, so client latency splits into handler time and the
// rest (loopback, accept, pacing).
type routeTimer struct {
	next http.Handler
	mu   sync.Mutex
	ms   map[string][]float64
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := ms(time.Since(start))
	t.mu.Lock()
	if t.ms == nil {
		t.ms = map[string][]float64{}
	}
	t.ms[r.URL.Path] = append(t.ms[r.URL.Path], d)
	t.mu.Unlock()
}

func (t *routeTimer) median(path string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.ms[path])
}

// client issues requests and keeps the books every check needs.
type client struct {
	base     string
	http     *http.Client
	maxID    atomic.Int64
	mu       sync.Mutex
	accepted []int
	sent     int
	failed   int
	errs     []string
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}}
}

// do sends one request and reports whether it succeeded. Non-2xx answers
// and transport errors count as failures.
func (c *client) do(method, path string, body []byte) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err == nil {
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			var out []byte
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode/100 != 2 {
				err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
			}
			if err == nil {
				c.count(nil)
				return out, true
			}
		}
	}
	c.count(err)
	return nil, false
}

// count books one sent request, and a failure if err is not nil.
func (c *client) count(err error) {
	c.mu.Lock()
	c.sent++
	c.mu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// fail books a failure and keeps the first few reasons for the report.
func (c *client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// submit posts one submit body and records the accepted job IDs.
func (c *client) submit(body []byte) (jobs int, ok bool) {
	out, ok := c.do(http.MethodPost, "/submit", body)
	if !ok {
		return 0, false
	}
	var resp struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		c.fail(fmt.Errorf("submit response: %w", err))
		return 0, false
	}
	c.mu.Lock()
	c.accepted = append(c.accepted, resp.IDs...)
	c.mu.Unlock()
	for _, id := range resp.IDs {
		for {
			cur := c.maxID.Load()
			if int64(id) <= cur || c.maxID.CompareAndSwap(cur, int64(id)) {
				break
			}
		}
	}
	return len(resp.IDs), true
}

// fleetState is the part of GET /fleet the benchmark reads.
type fleetState struct {
	SimTime float64 `json:"sim_time"`
	Queued  int     `json:"queued"`
}

func (c *client) fleet() (fleetState, error) {
	var st fleetState
	out, ok := c.do(http.MethodGet, "/fleet", nil)
	if !ok {
		return st, fmt.Errorf("GET /fleet failed")
	}
	err := json.Unmarshal(out, &st)
	return st, err
}

// sleepUntil blocks until t. It sleeps in the kernel: a Go timer wakes
// up to a millisecond late on an idle runtime, and a yield loop steals the
// processors the server needs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// openResult holds one open phase's latencies, each timed from the
// request's due time.
type openResult struct {
	submitMs, readMs, lateMs []float64
	simPerS                  float64
	// queued samples the fleet's admission queue every queueEvery.
	queued []int
}

// queueEvery is how often the open phase samples GET /fleet.
const queueEvery = 250 * time.Millisecond

// openPhase runs the fixed-rate schedule: the pacer queues each request at
// its due time and conns workers send them. A worker that falls behind
// makes later requests wait, and that wait counts in their latency.
func openPhase(c *client, reqs []request, conns int) (*openResult, error) {
	st0, err := c.fleet()
	if err != nil {
		return nil, err
	}
	res := &openResult{queued: []int{st0.Queued}}
	var mu sync.Mutex
	queue := make(chan int, len(reqs)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := &reqs[i]
				var ok bool
				switch q.kind {
				case kindSubmit, kindUnseen, kindBatch:
					_, ok = c.submit(q.body)
				case kindStatus:
					id := 1 + int(q.pick*float64(c.maxID.Load()))
					_, ok = c.do(http.MethodGet, "/status?id="+strconv.Itoa(id), nil)
				case kindMetrics:
					_, ok = c.do(http.MethodGet, "/metrics", nil)
				}
				done := time.Now()
				lat := ms(done.Sub(start.Add(q.due)))
				mu.Lock()
				if ok && q.kind <= kindBatch {
					res.submitMs = append(res.submitMs, lat)
				} else if ok {
					res.readMs = append(res.readMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	// A sampler reads the admission queue while the schedule runs, so a
	// queue that grows under the offered load fails the run.
	paced := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(queueEvery)
		defer tick.Stop()
		for {
			select {
			case <-paced:
				sampled <- nil
				return
			case <-tick.C:
				st, err := c.fleet()
				if err != nil {
					sampled <- err
					return
				}
				mu.Lock()
				res.queued = append(res.queued, st.Queued)
				mu.Unlock()
			}
		}
	}()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		sleepUntil(due)
		res.lateMs = append(res.lateMs, ms(time.Since(due)))
		queue <- i
	}
	close(queue)
	close(paced)
	wg.Wait()
	wall := time.Since(start)
	if err := <-sampled; err != nil {
		return nil, err
	}
	st1, err := c.fleet()
	if err != nil {
		return nil, err
	}
	res.queued = append(res.queued, st1.Queued)
	res.simPerS = (st1.SimTime - st0.SimTime) / wall.Seconds()
	return res, nil
}

// closedResult is what the closed loop measured. The rates and p50s are
// medians over one-second windows, so a host stall that slows one window
// does not move them; the pooled samples feed the printed tails.
type closedResult struct {
	jobsPerS, submitP50, readP50 float64
	windows                      int
	submitMs, readMs             []float64 // pooled, from send to response
}

// closedWindow is one window's samples.
type closedWindow struct {
	jobs             int
	submitMs, readMs []float64
}

// closedPhase runs conns clients that each send their next request as soon
// as the previous one is answered, until the deadline: 60% single submits
// of a Table I class, 25% /status reads, 15% /metrics scrapes. The
// process stays busy, so its latencies are steady where the open loop's
// are dominated by how fast an idle host wakes up.
func closedPhase(c *client, seed uint64, conns int, d time.Duration) *closedResult {
	classes := bwap.Benchmarks()
	window := min(time.Second, d)
	wins := make([]closedWindow, int(d/window))
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 0xc105ed+uint64(w)))
			for time.Since(start) < d {
				u := r.Float64()
				sent := time.Now()
				var jobs int
				var ok, read bool
				switch {
				case u < 0.6:
					body := submitBody(classes[r.IntN(len(classes))].Name, nil, 1+r.IntN(2), 1, closedScale)
					jobs, ok = c.submit(body)
				case u < 0.85:
					id := 1 + int(r.Float64()*float64(c.maxID.Load()))
					_, ok = c.do(http.MethodGet, "/status?id="+strconv.Itoa(id), nil)
					read = true
				default:
					_, ok = c.do(http.MethodGet, "/metrics", nil)
					read = true
				}
				lat := ms(time.Since(sent))
				i := int(sent.Sub(start) / window)
				if !ok || i >= len(wins) {
					continue
				}
				mu.Lock()
				wins[i].jobs += jobs
				if read {
					wins[i].readMs = append(wins[i].readMs, lat)
				} else {
					wins[i].submitMs = append(wins[i].submitMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res := &closedResult{windows: len(wins)}
	var jps, sp50, rp50 []float64
	for _, w := range wins {
		jps = append(jps, float64(w.jobs)/window.Seconds())
		sp50 = append(sp50, median(w.submitMs))
		rp50 = append(rp50, median(w.readMs))
		res.submitMs = append(res.submitMs, w.submitMs...)
		res.readMs = append(res.readMs, w.readMs...)
	}
	res.jobsPerS, res.submitP50, res.readP50 = median(jps), median(sp50), median(rp50)
	return res
}

// httpRound is one daemon lifetime: set-ups, the open and closed phases,
// the drain and its checks.
type httpRound struct {
	setup      []float64
	open       *openResult
	closed     *closedResult
	turnaround float64
	heapMB     float64
	d          *daemon
}

func runHTTPRound(opts options, snap []byte, budget time.Duration, traced bool, r *report) (*httpRound, error) {
	conns := runtime.GOMAXPROCS(0)
	round := &httpRound{}
	runtime.GC()
	var d *daemon
	for i := range bootReps {
		t := time.Now()
		var err error
		if d, err = startDaemon(snap, traced); err != nil {
			return nil, err
		}
		round.setup = append(round.setup, time.Since(t).Seconds())
		if i < bootReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	round.d = d
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // an error return is already on its way out
		}
	}()
	c := newClient(d.base, conns)
	defer c.http.CloseIdleConnections()

	n := max(20, int(openRate*budget.Seconds()*openShare*opts.size))
	open, err := openPhase(c, openRequests(opts.seed, n), conns)
	if err != nil {
		return nil, err
	}
	round.open = open
	r.check(slices.Max(open.queued) <= queueMax,
		"open loop: the fleet queued up to %d jobs (limit %d), so the offered load is above capacity", slices.Max(open.queued), queueMax)
	openJobs := len(c.accepted)
	round.heapMB = liveHeapMB()
	round.closed = closedPhase(c, opts.seed, conns, time.Duration(float64(budget)*closedShare*opts.size))
	st, err := c.fleet()
	if err != nil {
		return nil, err
	}
	r.note("closed loop: %d jobs in the fleet's admission queue at the end", st.Queued)

	// Drain: with the clock driver stopped and no request in flight, run
	// the fleet to completion directly, then read the outcome back over
	// HTTP as a client would.
	d.server.Stop()
	if _, err := d.fleet.Run(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	round.turnaround = checkJobs(c, d, openJobs, r)
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	r.attempted += c.sent
	r.failed += c.failed
	for _, e := range c.errs {
		r.note("request failed: %s", e)
	}
	return round, nil
}

// checkJobs requires every accepted job to be listed by /jobs and done
// after the drain; every one that is not counts as failed. It returns the
// mean simulated turnaround of the first openJobs accepted jobs, the ones
// the fixed open-loop schedule submitted.
func checkJobs(c *client, d *daemon, openJobs int, r *report) float64 {
	out, ok := c.do(http.MethodGet, "/jobs", nil)
	if !ok {
		r.check(false, "GET /jobs failed")
		return 0
	}
	var jobs []struct {
		ID      int     `json:"id"`
		State   string  `json:"state"`
		Arrival float64 `json:"arrival"`
		Finish  float64 `json:"finish"`
	}
	if err := json.Unmarshal(out, &jobs); err != nil {
		r.check(false, "/jobs: %v", err)
		return 0
	}
	byID := make(map[int]int, len(jobs))
	for i, j := range jobs {
		byID[j.ID] = i
	}
	notDone := 0
	turnaround := 0.0
	for k, id := range c.accepted {
		i, ok := byID[id]
		if !ok || jobs[i].State != "done" {
			notDone++
			continue
		}
		if k < openJobs {
			turnaround += jobs[i].Finish - jobs[i].Arrival
		}
	}
	c.failed += notDone
	r.check(notDone == 0, "%d of %d accepted jobs not done after drain", notDone, len(c.accepted))
	r.check(len(jobs) == len(c.accepted), "/jobs lists %d jobs, clients were given %d IDs", len(jobs), len(c.accepted))
	if err := d.fleet.Conservation(); err != nil {
		r.check(false, "conservation: %v", err)
	}
	r.check(c.failed == 0, "%d requests failed", c.failed)
	return turnaround / float64(max(openJobs, 1))
}

func runHTTP(opts options, r *report) error {
	snap, err := warmSnapshot()
	if err != nil {
		return err
	}
	budget := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		round, err := runHTTPRound(opts, snap, budget, false, r)
		if err != nil {
			return err
		}
		reportHTTPE2E(r, round)
		return nil
	}
	base, err := runHTTPRound(opts, snap, budget/2, false, r)
	if err != nil {
		return err
	}
	traced, err := runHTTPRound(opts, snap, budget/2, true, r)
	if err != nil {
		return err
	}
	reportHTTPLayers(opts, r, base, traced)
	return nil
}

func reportHTTPE2E(r *report, round *httpRound) {
	o, cl := round.open, round.closed
	r.set("setup_s", "s", median(round.setup), fmt.Sprintf("(median of %d daemon boots, spread %.3g)", len(round.setup), spread(round.setup)))
	r.set("jobs_per_s", "jobs/s", cl.jobsPerS, fmt.Sprintf("(closed loop, accepted jobs per wall second, median of %d windows)", cl.windows))
	r.set("sim_s_per_s", "sim_s/s", o.simPerS, "(open loop, /fleet sim_time change per wall second)")
	r.set("sim_turnaround_s", "sim_s", round.turnaround, "(mean arrival-to-finish of the open-loop jobs)")
	r.set("live_heap_mb", "MB", round.heapMB, "(after the open loop)")
	r.note("submit_p50_ms %.4g ms closed loop, send to response, pooled %s (reported, not gated)", cl.submitP50, tail(cl.submitMs))
	r.set("read_p50_ms", "ms", cl.readP50, "closed loop /status+/metrics, pooled "+tail(cl.readMs))
	r.note("open loop at %g requests/s, from due time (reported, not gated):", openRate)
	r.note("  submit_p50_ms %.4g submit_p99_ms %.4g %s", median(o.submitMs), quantile(o.submitMs, 0.99), tail(o.submitMs))
	r.note("  read_p50_ms %.4g read_p99_ms %.4g %s", median(o.readMs), quantile(o.readMs, 0.99), tail(o.readMs))
	r.note("  bench.gen_late_ms %.4g (pacer lateness %s)", median(o.lateMs), tail(o.lateMs))
	r.note("  fleet queue: at most %d jobs over %d samples (limit %d)", slices.Max(o.queued), len(o.queued), queueMax)
	r.note("closed loop submit_p99_ms %.4g read_p99_ms %.4g (reported, not gated)", quantile(cl.submitMs, 0.99), quantile(cl.readMs, 0.99))
	r.note("%s", r.failedFrac())
}

func reportHTTPLayers(opts options, r *report, base, traced *httpRound) {
	layer := map[string]float64{}
	d := traced.d
	st := d.fleet.Stats()
	log := d.fleet.LogBytes()
	it := &fleetIter{stamp: d.stamp, stats: st, cache: d.cache.Stats(), logBytes: len(log)}
	recs, err := bwap.DecodeFleetLog(log)
	r.check(err == nil, "log decode: %v", err)
	it.queued = queueRecords(recs)
	if h := d.observer.ProbeLatency(); h.Count() > 0 {
		it.probeSimS = h.Mean()
	}
	fleetLayers(layer, func(f func(*fleetIter) float64) float64 { return f(it) })
	for k, v := range exposeTimings(d.cache, d.observer) {
		layer[k] = v
	}
	var jobs []jobInput
	for _, q := range openRequests(opts.seed, 200) {
		if q.kind == kindUnseen || q.kind == kindSubmit {
			jobs = append(jobs, jobInput{spec: q.spec, workers: q.workers})
		}
	}
	if err := coreTimings(jobs, layer); err != nil {
		r.check(false, "core timings: %v", err)
	}
	tm := d.timing
	layer["server.submit_ms"] = tm.median("/submit")
	layer["server.status_ms"] = tm.median("/status")
	layer["server.metrics_ms"] = tm.median("/metrics")
	layer["server.outside_ms"] = median(traced.closed.submitMs) - tm.median("/submit")
	layer["server.sim_pace"] = traced.open.simPerS / d.server.SimRate
	layer["bench.gen_late_ms"] = median(traced.open.lateMs)
	layer["bench.trace_overhead_frac"] = ratio(base.closed.jobsPerS, traced.closed.jobsPerS) - 1
	reportLayers(r, layer)
	keys := make([]string, 0, len(tm.ms))
	for k := range tm.ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.note("handler %s %s", k, tail(tm.ms[k]))
	}
}
