package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bwap/internal/sim"
)

// The fleet fast-forward tests pin the merged JSONL event log at every
// shard count to bytes the naive solve-every-tick loop produced. The
// engine memoizes per-machine solves, replays them through barrier-free
// windows and catches added machines up on the replay path; none of that
// may move a byte. The tick-level oracle itself lives in sim
// (sim.NaiveTick, FuzzEngineEquivalence).

// naiveLogPins maps a config name to the SHA-256 of the merged log the
// naive loop wrote for it, computed when that loop still shipped as an
// engine option. Runs that differ only in shard count share a pin.
// "least-loaded" is the name of the fleet-wide machine-selection rule
// (bestFit) the pin was written under.
var naiveLogPins = map[string]string{
	"least-loaded": "2a57c731668b4b011093993def2740504eb6583f1117d57599ed32086a11f511",
	"bwap-warm":    "40682ae010096e9762528335400bbc6a4b8472ad63c95e158666950611589eac",
	// The chaos plan stepped in Advance(0.7) windows (TestConservationUnderChaos)
	// and run in one go (TestEngineLogFrozen) writes the same log.
	"chaos": "5b3684cc48ddc2c5f0d5c5b3e627310c0ba9b38068b09f56faa4dadfe2c75c35",
}

// checkNaivePin fails unless log hashes to the naive pin named key.
func checkNaivePin(t *testing.T, key string, log []byte) {
	t.Helper()
	sum := sha256.Sum256(log)
	if got, want := hex.EncodeToString(sum[:]), naiveLogPins[key]; got != want {
		t.Fatalf("%s: log hash drifted from the naive loop's:\n got %s\nwant %s", key, got, want)
	}
}

// TestFastForwardFleetEquivalence runs the first-touch stream at 1, 2
// and 4 shards (as many workers) and holds each log to the one naive pin;
// the runs must also agree on their headline stats.
func TestFastForwardFleetEquivalence(t *testing.T) {
	t.Run("least-loaded", func(t *testing.T) {
		var base *Stats
		for _, shards := range []int{1, 2, 4} {
			cfg := shardConfig(PolicyFirstTouch, AdmitMostFree, shards, 29)
			f, stats := runFleetWorkers(t, cfg, shards, shardStreams())
			checkNaivePin(t, "least-loaded", f.LogBytes())
			if stats.TickReplays == 0 {
				t.Fatalf("shards=%d: fast-forward never engaged (the pin would not cover replay)", shards)
			}
			if stats.Completed != stats.Jobs {
				t.Fatalf("shards=%d: %d of %d jobs completed", shards, stats.Completed, stats.Jobs)
			}
			if base == nil {
				base = stats
			} else if stats.Completed != base.Completed || stats.MeanTurnaround != base.MeanTurnaround ||
				stats.LogRecords != base.LogRecords {
				t.Fatalf("shards=%d: stats %+v differ from %+v under one log", shards, stats, base)
			}
		}
	})
}

// TestFastForwardFleetEquivalenceBWAP covers the DWP policy path — cache
// hits, coalesced retunes (placement churn mid-run) and migration backlog
// draining — against a shared pre-warmed cache, so the dwp/cache_hit log
// fields are exercised too.
func TestFastForwardFleetEquivalenceBWAP(t *testing.T) {
	cache := NewTuningCache(sim.Config{Seed: 29}, 0, 29)
	warm := shardConfig(PolicyBWAP, AdmitMostFree, 1, 29)
	warm.Cache = cache
	runFleet(t, warm, shardStreams())

	cfg := shardConfig(PolicyBWAP, AdmitMostFree, 4, 29)
	cfg.Cache = cache
	f, stats := runFleetWorkers(t, cfg, 4, shardStreams())
	if stats.CacheMisses != 0 {
		t.Fatalf("%d probes against a warm cache", stats.CacheMisses)
	}
	if stats.TickReplays == 0 {
		t.Fatal("fast-forward never engaged (the pin would not cover replay)")
	}
	checkNaivePin(t, "bwap-warm", f.LogBytes())
}
