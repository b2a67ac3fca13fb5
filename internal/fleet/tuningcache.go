package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"sync"

	"bwap/internal/cache"
	"bwap/internal/core"
	"bwap/internal/policy"
	"bwap/internal/sched"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// TuningCache memoizes BWAP placement decisions across jobs so that a
// repeated job skips re-profiling entirely. Two layers are cached, both
// with single-flight semantics (internal/cache):
//
//   - one core.CanonicalTuner per topology *fingerprint*, shared by every
//     machine of the same model — the canonical bandwidth profiling runs
//     at most once per (model, worker set) for the whole fleet;
//   - one tuned DWP value per (topology fingerprint × workload signature ×
//     worker count × co-runner count). A miss runs an offline probe: the
//     job's spec under the full BWAP policy (canonical weights + on-line
//     DWP tuner) on the best worker set of that size, against a synthetic
//     background co-runner scaled to the co-runner count. The probe's
//     BestDWP is the cached placement decision.
//
// The key deliberately uses the worker *count*, not the exact node set:
// the DWP proximity factor is a scalar property of how much page mass the
// worker set should attract, which transfers across symmetric node sets;
// the node-set-specific canonical weights are resolved separately (and
// cached per exact set inside the CanonicalTuner).
//
// A TuningCache is safe for concurrent use and may be shared across fleets
// and a bwapd daemon; concurrent first submissions of the same key share
// one probe run. Every probe runs synchronously, inside the DWP call that
// demands its key.
//
// The DWP layer forgets failed probes (a transient failure does not poison
// its key for the daemon's lifetime) and is unbounded by default
// (CacheMaxEntries adds an LRU bound for long-lived multi-tenant fleets).
// Completed DWP entries can be saved to a versioned JSON file and reloaded
// on a later boot: the key derivation is stable across processes, so a
// restored entry is a legitimate hit.
type TuningCache struct {
	simCfg     sim.Config
	probeScale float64
	seed       uint64
	canon      *cache.Cache[*core.CanonicalTuner]
	dwp        *cache.Cache[float64]

	// mu guards the observer hook and the per-key elapsed side-channel.
	// A probe records its elapsed simulated time here on whichever
	// goroutine ran it — a concurrent hit on a key still in flight can run
	// the shared computation on behalf of the caller that missed — and the
	// missing DWP call pops and reports it, outside any cache mutex, so
	// the observation sequence is a pure function of the demand order.
	mu       sync.Mutex
	probeObs func(simSeconds float64)
	elapsed  map[string]float64
}

// SetProbeObserver registers fn to receive every probe run's elapsed
// simulated time, reported when the probed value is first consumed by a
// DWP call (the deterministic point of the record stream). A cache shared
// between fleets reports each consumption to the last observer attached.
func (tc *TuningCache) SetProbeObserver(fn func(simSeconds float64)) {
	tc.mu.Lock()
	tc.probeObs = fn
	tc.mu.Unlock()
}

// TuningCacheOption configures a TuningCache at construction.
type TuningCacheOption func(*tuningCacheOpts)

type tuningCacheOpts struct {
	maxEntries int
}

// CacheMaxEntries bounds the DWP layer to n entries with LRU eviction
// (n <= 0 keeps it unbounded). The canonical-tuner layer stays unbounded:
// it holds one entry per topology model, not per workload.
func CacheMaxEntries(n int) TuningCacheOption {
	return func(o *tuningCacheOpts) { o.maxEntries = n }
}

// DefaultProbeWorkScale is the fraction of a job's work volume a tuning
// probe simulates: long enough for the scaled DWP search to converge,
// short enough that a cache miss costs a small fraction of the job itself.
const DefaultProbeWorkScale = 0.05

// probeMaxTime bounds one probe run in simulated seconds; if the tuner has
// not finished by then, its best-so-far DWP is used.
const probeMaxTime = 600

// NewTuningCache returns an empty cache. simCfg should match the fleet's
// engine configuration so probes see the same contention model; probeScale
// <= 0 selects DefaultProbeWorkScale.
func NewTuningCache(simCfg sim.Config, probeScale float64, seed uint64, opts ...TuningCacheOption) *TuningCache {
	if probeScale <= 0 {
		probeScale = DefaultProbeWorkScale
	}
	var o tuningCacheOpts
	for _, opt := range opts {
		opt(&o)
	}
	return &TuningCache{
		simCfg:     simCfg,
		probeScale: probeScale,
		seed:       seed,
		canon:      cache.New[*core.CanonicalTuner](),
		dwp:        cache.New[float64](cache.MaxEntries(o.maxEntries), cache.ForgetErrors()),
		elapsed:    make(map[string]float64),
	}
}

// Canonical returns the shared canonical tuner for the machine's topology
// fingerprint, creating it on first use.
func (tc *TuningCache) Canonical(topo *topology.Machine) *core.CanonicalTuner {
	ct, _, _ := tc.canon.Get(topo.Fingerprint(), func() (*core.CanonicalTuner, error) {
		return core.NewCanonicalTuner(topo, tc.simCfg), nil
	})
	return ct
}

// Key derives the cache key for a placement decision. The layout is
// frozen — "<fingerprint>|<signature>|w<workers>|c<coRunners>" — because
// persisted cache snapshots store keys verbatim; the hand-rolled append
// keeps the derivation to one allocation on the admission hot path.
func (tc *TuningCache) Key(topo *topology.Machine, spec workload.Spec, workers, coRunners int) string {
	var scratch [64]byte
	dst := append(scratch[:0], topo.Fingerprint()...)
	dst = append(dst, '|')
	dst = spec.AppendSignature(dst)
	dst = append(dst, '|', 'w')
	dst = strconv.AppendInt(dst, int64(workers), 10)
	dst = append(dst, '|', 'c')
	dst = strconv.AppendInt(dst, int64(coRunners), 10)
	return string(dst)
}

// DWP returns the tuned proximity factor for the given placement context,
// running a probe on first use. hit reports whether the value came from
// the cache (true) or this call ran the probe (false).
func (tc *TuningCache) DWP(topo *topology.Machine, spec workload.Spec, workers, coRunners int) (dwp float64, hit bool, err error) {
	key := tc.Key(topo, spec, workers, coRunners)
	dwp, hit, err = tc.dwp.Get(key, func() (float64, error) {
		return tc.probe(key, topo, spec, workers, coRunners)
	})
	if !hit {
		// Consumption point: report the probe's elapsed simulated time to
		// the observer here — on the demanding goroutine, outside the cache
		// mutex (lockedio) — even when a concurrent hit ran the mini-sim.
		// The elapsed value is a pure function of the key and this pop
		// happens exactly once per probe run, so the observation sequence
		// follows the demand order.
		tc.mu.Lock()
		secs, ran := tc.elapsed[key]
		if ran {
			delete(tc.elapsed, key)
		}
		obs := tc.probeObs
		tc.mu.Unlock()
		if ran && obs != nil {
			obs(secs)
		}
	}
	return dwp, hit, err
}

// Quiesce does nothing: probes run synchronously inside DWP, so no
// probe work outlives the call that demanded it. It stays only for
// callers written against the former asynchronous probe pool.
func (tc *TuningCache) Quiesce() {}

// TuningCacheStats is the DWP layer's cumulative accounting, reported by
// the daemon's /fleet endpoint. Misses equal probe runs.
type TuningCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Restored  int64 `json:"restored"`
	Entries   int   `json:"entries"`
}

// Stats reports the DWP cache's cumulative counters.
func (tc *TuningCache) Stats() TuningCacheStats {
	hits, misses := tc.dwp.Stats()
	return TuningCacheStats{
		Hits:      hits,
		Misses:    misses,
		Evictions: tc.dwp.Evictions(),
		Restored:  tc.dwp.Restored(),
		Entries:   tc.dwp.Len(),
	}
}

// tuningCacheFileVersion versions the Save/LoadInto envelope; the inner
// cache snapshot carries its own format version.
const (
	tuningCacheFileVersion = 1
	tuningCacheFileKind    = "bwap-tuning-cache"
)

// tuningCacheFile is the on-disk envelope around the DWP cache snapshot.
type tuningCacheFile struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	DWP     json.RawMessage `json:"dwp"`
}

// SnapshotBytes serializes every completed DWP entry (keys embed the
// topology fingerprint and workload signature, so entries are portable
// across processes and machines of the same model).
func (tc *TuningCache) SnapshotBytes() ([]byte, error) {
	dwp, err := tc.dwp.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fleet: cache snapshot: %w", err)
	}
	return json.MarshalIndent(tuningCacheFile{
		Version: tuningCacheFileVersion,
		Kind:    tuningCacheFileKind,
		DWP:     dwp,
	}, "", " ")
}

// ErrBadSnapshot re-exports cache.ErrBadSnapshot: every RestoreBytes (and
// LoadInto) failure caused by the snapshot content wraps it, so a daemon
// can distinguish a corrupt cache file — warn and boot cold — from an I/O
// problem worth failing on.
var ErrBadSnapshot = cache.ErrBadSnapshot

// RestoreBytes loads a SnapshotBytes payload into the cache and returns
// how many entries it added. Restored entries are full hits: a later DWP
// lookup of their key runs no probe. Corrupt, truncated or wrong-version
// payloads return an error wrapping ErrBadSnapshot and leave the cache
// untouched and usable.
func (tc *TuningCache) RestoreBytes(data []byte) (int, error) {
	var f tuningCacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("fleet: cache restore: %w: %v", ErrBadSnapshot, err)
	}
	if f.Kind != tuningCacheFileKind {
		return 0, fmt.Errorf("fleet: cache restore: %w: kind %q, want %q", ErrBadSnapshot, f.Kind, tuningCacheFileKind)
	}
	if f.Version != tuningCacheFileVersion {
		return 0, fmt.Errorf("fleet: cache restore: %w: file version %d, want %d", ErrBadSnapshot, f.Version, tuningCacheFileVersion)
	}
	n, err := tc.dwp.Restore(f.DWP)
	if err != nil {
		return 0, fmt.Errorf("fleet: cache restore: %w", err)
	}
	return n, nil
}

// Save atomically writes the cache snapshot to path (temp file + rename),
// so a crash mid-write never leaves a truncated cache for the next boot.
func (tc *TuningCache) Save(path string) error {
	data, err := tc.SnapshotBytes()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fleet: cache save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("fleet: cache save: %w", err)
	}
	return nil
}

// LoadInto reads a Save file into this cache, returning how many entries
// were restored. A missing file is an error the caller can detect with
// os.IsNotExist for the boot-if-present pattern.
func (tc *TuningCache) LoadInto(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return tc.RestoreBytes(data)
}

// probeParams compresses the DWP search the same way the experiment
// profiles do for scaled-down runs, so the probe converges within its
// shortened work volume.
func probeParams() core.Params {
	p := core.DefaultParams()
	p.N, p.C, p.T = 5, 1, 0.1
	return p
}

// probeCoSpec models the aggregate memory pressure of n co-located jobs as
// one background streaming application: a moderate mixed read/write stream
// per co-runner, never finishing (ComputeBound), so the probe's tuner
// hill-climbs against a loaded interconnect comparable to the fleet
// machine it stands in for.
func probeCoSpec(n int) workload.Spec {
	d := 4.0 * float64(n)
	return workload.Spec{
		Name: "probe-co", ReadGBs: d, WriteGBs: 0.25 * d, PrivateFrac: 0.5,
		LatencySensitivity: 0.05,
		SharedGB:           0.25, PrivateGBPerNode: 0.1,
		ComputeBound: true,
	}
}

// probe runs one offline tuning simulation and returns the DWP the on-line
// tuner settles on. The seed is derived from the key so every probe is
// deterministic regardless of the order in which keys are first requested.
func (tc *TuningCache) probe(key string, topo *topology.Machine, spec workload.Spec, workers, coRunners int) (float64, error) {
	ws, err := sched.BestWorkerSet(topo, workers)
	if err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	cfg := tc.simCfg
	cfg.MaxTime = probeMaxTime
	h := fnv.New64a()
	h.Write([]byte(key))
	cfg.Seed = tc.seed ^ h.Sum64()
	e := sim.New(topo, cfg)

	if rest := sched.RemainingNodes(topo, ws); coRunners > 0 && len(rest) > 0 {
		if _, err := e.AddApp("probe-co", probeCoSpec(coRunners), rest, policy.FirstTouch{}); err != nil {
			return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
		}
	}
	b := core.NewBWAP(tc.Canonical(topo))
	b.Params = probeParams()
	if _, err := e.AddApp(spec.Name, spec.Scaled(tc.probeScale), ws, b); err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	if _, err := e.Run(); err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	// e.Now() after Run is the probe's elapsed simulated time — a pure
	// function of (key, topology, spec). It is parked here and reported to
	// the observer by the DWP call that missed, because this function may
	// run on a concurrent hit's goroutine.
	tc.mu.Lock()
	tc.elapsed[key] = e.Now()
	tc.mu.Unlock()
	tuner := b.TunerFor(spec.Name)
	if tuner == nil {
		return 0, fmt.Errorf("fleet: probe %s: no tuner attached", key)
	}
	if err := tuner.Err(); err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	return tuner.BestDWP(), nil
}
