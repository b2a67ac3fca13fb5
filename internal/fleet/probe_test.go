package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"bwap/internal/workload"
)

// TestProbeObservationsShardInvariant: for a cold cache, a chaos +
// telemetry fleet at shards/workers 1, 2 and 4 must produce the same
// merged event log, the same /metrics exposition and the same probe
// observer sequence (value for value), because every probe runs at the
// admission that demands it and reports its elapsed simulated time there.
func TestProbeObservationsShardInvariant(t *testing.T) {
	type outcome struct {
		name    string
		log     []byte
		metrics []byte
		probes  []float64
	}
	var runs []outcome
	for _, c := range []struct{ shards, workers int }{{1, 1}, {2, 2}, {4, 4}} {
		cfg := obsFaultConfig(c.shards)
		cfg.Obs = NewObserver(ObserverConfig{})
		f := newFleet(t, cfg, c.workers)
		// Interpose on the probe observer: record the sequence this run
		// reports, then feed the real observer so /metrics stays fully
		// populated.
		var probes []float64
		inner := f.Observer().observeProbe
		f.Cache().SetProbeObserver(func(secs float64) {
			probes = append(probes, secs)
			inner(secs)
		})
		if err := f.SubmitStream(shardStreams()); err != nil {
			t.Fatal(err)
		}
		stats, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed == 0 {
			t.Fatal("no jobs completed; the matrix is vacuous")
		}
		runs = append(runs, outcome{
			name:    fmt.Sprintf("shards=%d", c.shards),
			log:     f.LogBytes(),
			metrics: metricsOf(t, f),
			probes:  probes,
		})
	}
	base := runs[0]
	if len(base.probes) == 0 {
		t.Fatal("no probes observed on a cold cache; the sequence check is vacuous")
	}
	for _, r := range runs[1:] {
		if !bytes.Equal(base.log, r.log) {
			t.Errorf("%s: merged log differs from %s", r.name, base.name)
		}
		if !bytes.Equal(base.metrics, r.metrics) {
			t.Errorf("%s: /metrics differs from %s\n--- base ---\n%s\n--- got ---\n%s",
				r.name, base.name, base.metrics, r.metrics)
		}
		if len(base.probes) != len(r.probes) {
			t.Errorf("%s: %d probe observations, %s saw %d", r.name, len(r.probes), base.name, len(base.probes))
			continue
		}
		for i := range base.probes {
			if base.probes[i] != r.probes[i] {
				t.Errorf("%s: probe observation %d = %v, want %v", r.name, i, r.probes[i], base.probes[i])
				break
			}
		}
	}
}

// TestColdRunProbesOnlyDemandedKeys: a cold run whose churn changes
// co-runner counts between submission and admission — six distinct
// classes arriving staggered on two 4-node machines — probes exactly the
// keys its admissions and retunes demand. Every cache entry is one miss,
// every probe's elapsed side-channel entry is popped by the DWP call that
// missed (none is left to leak in a long-lived daemon), and a second fleet
// sharing the warm cache sees only hits.
func TestColdRunProbesOnlyDemandedKeys(t *testing.T) {
	var streams []StreamSpec
	for i := range 6 {
		streams = append(streams, StreamSpec{
			Workload: testSpec(fmt.Sprintf("c%d", i)),
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 1, Start: 0.3 * float64(i), Count: 1},
			Workers:  2, WorkScale: 0.05,
		})
	}
	f, stats := runFleet(t, testConfig(PolicyBWAP, 7), streams)
	if stats.CacheMisses == 0 {
		t.Fatal("cold run recorded no misses")
	}
	tc := f.Cache()
	if cs := tc.Stats(); cs.Entries != int(cs.Misses) {
		t.Fatalf("cold run left %d cache entries for %d misses; undemanded probes ran", cs.Entries, cs.Misses)
	}
	tc.mu.Lock()
	leaked := len(tc.elapsed)
	tc.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d probe elapsed-time entries left unconsumed after Run", leaked)
	}

	cfg := testConfig(PolicyBWAP, 7)
	cfg.Cache = tc
	_, warm := runFleet(t, cfg, streams)
	if warm.CacheMisses != 0 {
		t.Fatalf("warm run recorded %d misses", warm.CacheMisses)
	}
	if warm.CacheHits == 0 {
		t.Fatal("warm run recorded no hits")
	}
}
