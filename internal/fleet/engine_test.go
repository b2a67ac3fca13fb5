package fleet

import (
	"bytes"
	"testing"

	"bwap/internal/obs"
	"bwap/internal/workload"
)

// TestEngineReplayShardWorkerEquivalence is the engine's determinism
// contract under the bwap policy: the merged (t, kind, seq) log is
// bit-identical for every shard/worker partition, even though shards
// free-run through multi-tick windows between barriers.
func TestEngineReplayShardWorkerEquivalence(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		var base []byte
		for _, c := range replayCombos {
			f, stats := runFleetWorkers(t, shardConfig(PolicyBWAP, admission, c.shards, 7), c.workers, shardStreams())
			if stats.Completed != stats.Jobs {
				t.Fatalf("%s %d/%d: %d of %d jobs completed", admission, c.shards, c.workers, stats.Completed, stats.Jobs)
			}
			if base == nil {
				base = f.LogBytes()
				continue
			}
			if !bytes.Equal(base, f.LogBytes()) {
				t.Fatalf("%s: log differs at shards=%d workers=%d", admission, c.shards, c.workers)
			}
		}
	}
}

// TestEngineChaosTraceReplayShardInvariance: a trace recorded with
// fault injection reproduces itself bit for bit at 1, 2 and 4 shards.
func TestEngineChaosTraceReplayShardInvariance(t *testing.T) {
	rec, stats := runFleetWorkers(t, chaosShardConfig(1), 1, shardStreams())
	if stats.Evacuations == 0 && stats.Retries == 0 {
		t.Fatal("recorded run hit no faults; shard invariance would be vacuous")
	}
	resolve := func(name string) (workload.Spec, error) {
		spec := testSpec(name)
		if name == "modest" {
			spec.ReadGBs, spec.WriteGBs = 3, 0.5
		}
		return spec, nil
	}
	trace, err := ReadTrace(rec.LogBytes(), resolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		f, _ := runFleetWorkers(t, chaosShardConfig(shards), shards, trace)
		if !bytes.Equal(rec.LogBytes(), f.LogBytes()) {
			t.Fatalf("chaos replay at %d shards changed the log\n--- recorded ---\n%s\n--- replay ---\n%s",
				shards, rec.LogBytes(), f.LogBytes())
		}
	}
}

// TestEngineMetricsReplayByteIdentical runs the telemetry-attached
// replay matrix (chaos plan + observer + spans): log, /metrics text,
// timeline JSON and span log must all be byte-identical at 1, 2 and 4
// shards.
func TestEngineMetricsReplayByteIdentical(t *testing.T) {
	cfg := obsFaultConfig(1)
	var baseSpans bytes.Buffer
	cfg.Obs = NewObserver(ObserverConfig{SpanW: &baseSpans})
	recorded, _ := runFleetWorkers(t, cfg, 1, shardStreams())
	if err := recorded.Observer().CloseSpans(); err != nil {
		t.Fatal(err)
	}
	baseMetrics := metricsOf(t, recorded)
	baseTimeline := timelineJSON(t, recorded, 2)
	if err := obs.Lint(baseMetrics); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}

	streams, err := ReadTrace(recorded.LogBytes(), obsResolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ shards, workers int }{{1, 1}, {2, 2}, {4, 4}} {
		rcfg := obsFaultConfig(c.shards)
		var spans bytes.Buffer
		rcfg.Obs = NewObserver(ObserverConfig{SpanW: &spans})
		rf, _ := runFleetWorkers(t, rcfg, c.workers, streams)
		if err := rf.Observer().CloseSpans(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recorded.LogBytes(), rf.LogBytes()) {
			t.Fatalf("shards=%d: replay diverged from recording", c.shards)
		}
		if got := metricsOf(t, rf); !bytes.Equal(baseMetrics, got) {
			t.Fatalf("shards=%d changed /metrics\n--- base ---\n%s\n--- got ---\n%s",
				c.shards, baseMetrics, got)
		}
		if got := timelineJSON(t, rf, 2); !bytes.Equal(baseTimeline, got) {
			t.Fatalf("shards=%d changed the timeline", c.shards)
		}
		if !bytes.Equal(baseSpans.Bytes(), spans.Bytes()) {
			t.Fatalf("shards=%d changed the span log", c.shards)
		}
	}
}

// TestEngineReplaysMoreTicks pins the point of the latency-feedback
// snap (sim's latSnapRel) and of replaying through the feedback chase
// when no throttle reads the multipliers: without them the engines spend
// dozens of ticks after every perturbation re-solving while the feedback
// converges (latEpoch churn blocks the replay path). On the dense shard
// stream the fleet must keep replaying the bulk of its ticks.
func TestEngineReplaysMoreTicks(t *testing.T) {
	_, stats := runFleetWorkers(t, shardConfig(PolicyBWAP, AdmitMostFree, 2, 7), 2, shardStreams())
	total := stats.TickSolves + stats.TickReplays
	if total == 0 {
		t.Fatal("no ticks ran")
	}
	frac := float64(stats.TickReplays) / float64(total)
	// The dense stream measures ~0.778 under the snap, the windowed
	// advance and replay through the chase (~0.678 without the last); the
	// gate sits at the honest floor with a small margin so a regression
	// that costs more than a few points of replay share fails loudly.
	if frac < 0.75 {
		t.Fatalf("replays %.1f%% of ticks on the dense stream, want > 75%%", 100*frac)
	}
	if stats.Completed != stats.Jobs {
		t.Fatalf("run completed %d of %d jobs", stats.Completed, stats.Jobs)
	}
	t.Logf("replay fraction: %.3f", frac)
}

// TestEnginePhaseAwareHorizon pins the fleet-visible effect of the
// per-phase completion bound (sim.appCompletionHorizon): a demand peak
// the workload has already passed must stop haunting the free-run
// windows. Two streams differ only in where a 3× demand phase sits — at
// 5% of the work (passed almost immediately, factor 1 thereafter) or at
// 90% (genuinely gating completion). A lifetime-peak-majorized horizon
// sizes both runs' windows by the same factor 3; the per-phase bound
// gives the early-peak run factor-1 windows for the ~95% of its life
// after the boundary, which shows up as a strictly larger mean advance
// window (AdvanceTicks/AdvanceBatches) than the late-peak run, whose
// short windows near the end are honest.
func TestEnginePhaseAwareHorizon(t *testing.T) {
	meanWindow := func(phases []workload.Phase) float64 {
		spec := testSpec("phased")
		spec.Phases = phases
		// Sparse arrivals: with few scheduled events on the heap, the
		// completion horizon is what actually bounds the free-run windows.
		streams := []StreamSpec{{
			Workload: spec,
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 0.2, Count: 3},
			Workers:  2, WorkScale: 0.1,
		}}
		f, stats := runFleetWorkers(t, shardConfig(PolicyBWAP, AdmitMostFree, 2, 7), 2, streams)
		if stats.Completed != stats.Jobs {
			t.Fatalf("phases %v: %d of %d jobs completed", phases, stats.Completed, stats.Jobs)
		}
		if stats.AdvanceBatches == 0 {
			t.Fatal("no advance batches recorded")
		}
		_ = f
		return float64(stats.AdvanceTicks) / float64(stats.AdvanceBatches)
	}
	late := meanWindow([]workload.Phase{
		{AtWorkFraction: 0.9, DemandFactor: 3, LatencyFactor: 1},
	})
	early := meanWindow([]workload.Phase{
		{AtWorkFraction: 0.05, DemandFactor: 3, LatencyFactor: 1},
		{AtWorkFraction: 0.15, DemandFactor: 1, LatencyFactor: 1},
	})
	t.Logf("mean advance window: early-peak %.1f ticks, late-peak %.1f ticks", early, late)
	if early <= late {
		t.Fatalf("early-peak mean window %.1f not above late-peak %.1f; a passed peak still haunts the horizon", early, late)
	}
}

// TestEngineLogFrozen pins the engine's reference bytes: the chaos log
// for a fixed config and stream is frozen across PRs (naiveLogPins'
// "chaos", written by the naive solve-every-tick loop), so any drift in
// advance semantics fails loudly rather than silently moving the
// reference. The hash is the same at 2×2 and 1×1 (shard invariance).
func TestEngineLogFrozen(t *testing.T) {
	for _, n := range []int{2, 1} {
		f, _ := runFleetWorkers(t, chaosShardConfig(n), n, shardStreams())
		checkNaivePin(t, "chaos", f.LogBytes())
	}
}
