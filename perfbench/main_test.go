package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// heldOutSeed is a seed no tuning of the benchmark used; claims are
// checked on it beside the default seed 1.
const heldOutSeed = 7919

// runTiny runs one workload in-process at a tenth of its size and returns
// its report. A tenth is still enough jobs for fleet-cold's admission
// queue to build, which its load check requires.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) *report {
	t.Helper()
	opts := options{workload: workload, seed: seed, seconds: 1, trace: trace, size: 0.1}
	r := newReport()
	if err := workloads[workload](opts, r); err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if len(r.errs) > 0 {
		t.Fatalf("%s seed %d trace %v: checks failed: %v", workload, seed, trace, r.errs)
	}
	if r.attempted < 1 || r.failed != 0 {
		t.Fatalf("%s: attempted %d failed %d", workload, r.attempted, r.failed)
	}
	return r
}

// TestEveryMetricPrinted runs each workload untraced and traced and checks
// that each prints every metric BENCHMARK.json names, with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for wl := range workloads {
		for _, trace := range []bool{false, true} {
			r := runTiny(t, wl, 1, trace)
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics printed, BENCHMARK.json names %d", wl, trace, len(r.metrics), len(want))
			}
			for _, b := range want {
				m, ok := r.metrics[b.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: %s not printed", wl, trace, b.Name)
				case m.Unit != b.Unit:
					t.Errorf("%s trace %v: %s unit %q, BENCHMARK.json says %q", wl, trace, b.Name, m.Unit, b.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl, b.Name, m.Value)
				}
			}
			var out bytes.Buffer
			if err := r.write(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl, err)
			}
			if last.Correct == nil || !*last.Correct || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(want) {
				t.Errorf("%s trace %v: bad result line %q", wl, trace, lines[len(lines)-1])
			}
		}
	}
}

// TestFleetLogStable checks the determinism the fleet workloads promise:
// one seed writes one event log, traced or not, on the default and the
// held-out seed, and the two seeds write different logs.
func TestFleetLogStable(t *testing.T) {
	sha := func(r *report) string {
		for _, l := range r.lines {
			if f := strings.Fields(l); len(f) > 1 && f[0] == "log_sha256" {
				return f[1]
			}
		}
		t.Fatal("no log_sha256 line")
		return ""
	}
	for _, wl := range []string{"fleet-steady", "fleet-cold"} {
		a, b := sha(runTiny(t, wl, 1, false)), sha(runTiny(t, wl, 1, true))
		if a != b {
			t.Errorf("%s: untraced log %s, traced %s", wl, a, b)
		}
		if h := sha(runTiny(t, wl, heldOutSeed, false)); h == a {
			t.Errorf("%s: held-out seed wrote the same log as seed 1", wl)
		}
	}
}

func TestEnvGuard(t *testing.T) {
	t.Setenv("BWAP_ENGINE", "2")
	if envGuard() == nil {
		t.Error("BWAP_ENGINE set, guard passed")
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := pyQuartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %g %g, want 2.75 8.25", q1, q3)
	}
}
