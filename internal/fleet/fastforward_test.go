package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"bwap/internal/sim"
)

// The fleet fast-forward tests pin the merged JSONL event log of every
// routing policy and shard count to bytes the naive solve-every-tick loop
// produced. The engine memoizes per-machine solves, replays them through
// barrier-free windows and catches added machines up on the replay path;
// none of that may move a byte. The tick-level oracle itself lives in sim
// (sim.NaiveTick, FuzzEngineEquivalence).

// naiveLogPins maps a config name to the SHA-256 of the merged log the
// naive loop wrote for it, computed when that loop still shipped as an
// engine option. Runs that differ only in shard count share a pin when
// routing keeps their placements equal.
var naiveLogPins = map[string]string{
	"least-loaded":    "2a57c731668b4b011093993def2740504eb6583f1117d57599ed32086a11f511",
	"hash-affinity/2": "046625c0eb304c8c266eb9194eef0313ac8a7150828c1be51f6bbbeb3a4802b6",
	"hash-affinity/4": "c26dcfe2789200b4a8faeece6a0bf7dc4b9aecda8b52db5edbe20f4c5ca5c93c",
	"round-robin/2":   "3c297eddbcf3ddc547251a9aee134def8ba6e895b04013b79ff7635855cb8ed7",
	"round-robin/4":   "949602406f91859ccf4b9bd020de30f367840ec7d33cac6dd85ca3b38820c378",
	"bwap-warm":       "40682ae010096e9762528335400bbc6a4b8472ad63c95e158666950611589eac",
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

func ffShardConfig(routing string, shards int) Config {
	cfg := shardConfig(PolicyFirstTouch, AdmitMostFree, shards, shards, 29)
	cfg.Routing = routing
	return cfg
}

// TestFastForwardFleetEquivalence runs all three routing policies at 1,
// 2 and 4 shards and holds each log to its naive pin. Every single-shard
// run, and every least-loaded run, places identically and shares one pin;
// runs sharing a pin must also agree on their headline stats.
func TestFastForwardFleetEquivalence(t *testing.T) {
	byPin := map[string]*Stats{}
	for _, routing := range []string{RouteLeastLoaded, RouteHashAffinity, RouteRoundRobin} {
		t.Run(routing, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				f, stats := runFleet(t, ffShardConfig(routing, shards), shardStreams())
				key := RouteLeastLoaded
				if shards > 1 && routing != RouteLeastLoaded {
					key = fmt.Sprintf("%s/%d", routing, shards)
				}
				checkNaivePin(t, key, f.LogBytes())
				if stats.TickReplays == 0 {
					t.Fatalf("shards=%d: fast-forward never engaged (the pin would not cover replay)", shards)
				}
				if stats.Completed != stats.Jobs {
					t.Fatalf("shards=%d: %d of %d jobs completed", shards, stats.Completed, stats.Jobs)
				}
				if base := byPin[key]; base == nil {
					byPin[key] = stats
				} else if stats.Completed != base.Completed || stats.MeanTurnaround != base.MeanTurnaround ||
					stats.LogRecords != base.LogRecords {
					t.Fatalf("shards=%d: stats %+v differ from %+v under one log", shards, stats, base)
				}
			}
		})
	}
}

// TestFastForwardFleetEquivalenceBWAP covers the DWP policy path — cache
// hits, coalesced retunes (placement churn mid-run) and migration backlog
// draining — against a shared pre-warmed cache, so the dwp/cache_hit log
// fields are exercised too.
func TestFastForwardFleetEquivalenceBWAP(t *testing.T) {
	cache := NewTuningCache(sim.Config{Seed: 29}, 0, 29)
	warm := shardConfig(PolicyBWAP, AdmitMostFree, 1, 1, 29)
	warm.Cache = cache
	runFleet(t, warm, shardStreams())

	cfg := shardConfig(PolicyBWAP, AdmitMostFree, 4, 4, 29)
	cfg.Cache = cache
	f, stats := runFleet(t, cfg, shardStreams())
	if stats.CacheMisses != 0 {
		t.Fatalf("%d probes against a warm cache", stats.CacheMisses)
	}
	if stats.TickReplays == 0 {
		t.Fatal("fast-forward never engaged (the pin would not cover replay)")
	}
	checkNaivePin(t, "bwap-warm", f.LogBytes())
}
