package fleet

import (
	"bytes"
	"testing"

	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The replay-equivalence tests pin the sharding acceptance criterion:
// for a fixed seed and job stream, neither the shard count nor the worker
// count may change the merged JSONL event log by a single byte. Worker
// invariance holds because parallelism only moves tick work between
// goroutines under the barrier; shard invariance holds because admission
// selects its machine fleet-wide (bestFit), never per shard.

func eightNodeMachine(int) *topology.Machine { return topology.Symmetric(4, 4, 40, 10) }

// shardStreams mixes worker demands and demand classes: alpha/beta are
// bandwidth-hungry (anti-affinity spreads them), modest falls back to
// most-free packing, and the beta class wants whole machines so the queue
// and backfill paths run too.
func shardStreams() []StreamSpec {
	modest := testSpec("modest")
	modest.ReadGBs, modest.WriteGBs = 3, 0.5 // below the anti-affinity threshold
	return []StreamSpec{
		{
			Workload: testSpec("alpha"),
			Arrival:  workload.ArrivalSpec{Process: workload.Poisson, Rate: 3, Count: 6},
			Workers:  2, WorkScale: 0.1,
		},
		{
			Workload: testSpec("beta"),
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 2, Count: 4},
			Workers:  4, WorkScale: 0.1,
		},
		{
			Workload: modest,
			Arrival:  workload.ArrivalSpec{Process: workload.Poisson, Rate: 2, Start: 1, Count: 4},
			Workers:  1, WorkScale: 0.1,
		},
	}
}

func shardConfig(placement, admission string, shards int, seed uint64) Config {
	return Config{
		Machines:   8,
		Shards:     shards,
		NewMachine: eightNodeMachine,
		SimCfg:     sim.Config{Seed: seed},
		Policy:     placement,
		Admission:  admission,
		Seed:       seed,
	}
}

var replayCombos = []struct{ shards, workers int }{
	{1, 1}, {2, 1}, {2, 2}, {8, 1}, {8, 4}, {8, 8},
}

// TestReplayShardWorkerEquivalence runs the same seed and stream at 1, 2
// and 8 shards with 1 and N workers, table-driven over all three
// admission policies, and demands byte-identical merged logs.
func TestReplayShardWorkerEquivalence(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		t.Run(admission, func(t *testing.T) {
			var base []byte
			var baseStats *Stats
			for _, c := range replayCombos {
				f, stats := runFleetWorkers(t, shardConfig(PolicyFirstTouch, admission, c.shards, 17), c.workers, shardStreams())
				if stats.Completed != 14 {
					t.Fatalf("shards=%d workers=%d completed %d/14", c.shards, c.workers, stats.Completed)
				}
				if base == nil {
					base, baseStats = f.LogBytes(), stats
					continue
				}
				if !bytes.Equal(base, f.LogBytes()) {
					t.Fatalf("shards=%d workers=%d changed the log\n--- baseline ---\n%s\n--- got ---\n%s",
						c.shards, c.workers, base, f.LogBytes())
				}
				if stats.Completed != baseStats.Completed || stats.MeanTurnaround != baseStats.MeanTurnaround ||
					stats.LogRecords != baseStats.LogRecords {
					t.Fatalf("shards=%d workers=%d changed stats: %+v vs %+v", c.shards, c.workers, stats, baseStats)
				}
			}
		})
	}
}

// TestReplayShardEquivalenceBWAP covers the DWP path: with a shared,
// pre-warmed tuning cache every admission and retune resolves the same
// cached values, so the full bwap log (dwp, cache_hit fields included) is
// shard- and worker-invariant too.
func TestReplayShardEquivalenceBWAP(t *testing.T) {
	cache := NewTuningCache(sim.Config{Seed: 17}, 0, 17)
	warm := shardConfig(PolicyBWAP, AdmitMostFree, 1, 17)
	warm.Cache = cache
	runFleet(t, warm, shardStreams()) // populates every (sig, workers, co) key

	var base []byte
	for _, c := range []struct{ shards, workers int }{{1, 1}, {4, 2}, {8, 8}} {
		cfg := shardConfig(PolicyBWAP, AdmitMostFree, c.shards, 17)
		cfg.Cache = cache
		f, stats := runFleetWorkers(t, cfg, c.workers, shardStreams())
		if stats.CacheMisses != 0 {
			t.Fatalf("shards=%d: %d probes ran against a warm cache", c.shards, stats.CacheMisses)
		}
		if base == nil {
			base = f.LogBytes()
			continue
		}
		if !bytes.Equal(base, f.LogBytes()) {
			t.Fatalf("bwap log differs at shards=%d workers=%d", c.shards, c.workers)
		}
	}
}

// TestReplaySeedStillMatters guards against the invariance tests passing
// vacuously: a different seed must produce a different log.
func TestReplaySeedStillMatters(t *testing.T) {
	f1, _ := runFleetWorkers(t, shardConfig(PolicyFirstTouch, AdmitMostFree, 8, 17), 8, shardStreams())
	f2, _ := runFleetWorkers(t, shardConfig(PolicyFirstTouch, AdmitMostFree, 8, 18), 8, shardStreams())
	if bytes.Equal(f1.LogBytes(), f2.LogBytes()) {
		t.Fatal("different seeds produced identical logs")
	}
}
