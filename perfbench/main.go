// Command perfbench is the repository benchmark: it drives one named
// workload against the shipped bwap fleet and bwapd code for a fixed wall
// budget, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones (see README.md).
//
// From the repository root:
//
//	bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare before.txt after.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opts options, r *report) error{
	"fleet-steady": runFleetSteady,
	"fleet-cold":   runFleetCold,
	"bwapd-http":   runHTTP,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// size scales every workload's input volume: 1 from the command
	// line, a tenth in the package test.
	size float64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := envGuard(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newReport()
	fmt.Println(provenance(opts))
	if err := workloads[opts.workload](opts, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload name: fleet-steady, fleet-cold or bwapd-http")
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&opts.seconds, "seconds", 20, "wall seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if _, ok := workloads[opts.workload]; !ok {
		return opts, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if trace != 0 && trace != 1 {
		return opts, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opts.seconds <= 0 {
		return opts, fmt.Errorf("--seconds must be positive")
	}
	opts.trace = trace == 1
	opts.size = 1
	return opts, nil
}

// envGuard refuses to measure a different program than the one users run:
// both variables switch the fleet onto a non-default code path.
func envGuard() error {
	for _, v := range []string{"BWAP_ENGINE", "BWAP_NO_FASTFORWARD"} {
		if _, set := os.LookupEnv(v); set {
			return fmt.Errorf("%s is set; unset it to measure the shipped defaults", v)
		}
	}
	return nil
}

// provenance names everything a result depends on besides the code.
func provenance(opts options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p, _ := json.Marshal(map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"size":       opts.size,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"started":    time.Now().UTC().Format(time.RFC3339),
	})
	return "provenance " + string(p)
}

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, human-readable details and failed
// correctness checks.
type report struct {
	metrics   map[string]metric
	lines     []string
	errs      []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}}
}

// set records a metric; detail is printed beside it for humans.
func (r *report) set(name, unit string, v float64, detail string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("metric %-28s %14.6g %-10s", name, v, unit)
	if detail != "" {
		line += " " + detail
	}
	r.lines = append(r.lines, line)
}

// note prints a line that is not a metric (hashes, counts, spreads).
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) write(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "check failed:", e)
	}
	if r.attempted < 1 {
		return fmt.Errorf("nothing attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

// failedFrac renders the failure share for the human-readable output.
func (r *report) failedFrac() string {
	return fmt.Sprintf("failed_frac %d/%d = %.6g", r.failed, r.attempted,
		float64(r.failed)/float64(max(r.attempted, 1)))
}
