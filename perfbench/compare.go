package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare mode reads.
type benchFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultSet maps workload → metric → the values of every run in a file.
type resultSet map[string]map[string][]float64

// compareMain implements `perfbench compare A [B]`, run from the
// repository root, where it reads the bounds from BENCHMARK.json. A and B
// are files holding the concatenated standard output of benchmark runs.
// With one set it prints each metric's median, quartiles and spread
// against its bound; with two it also says whether B's median is worse
// than A's by more than the bound, which is the acceptance rule.
func compareMain(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: perfbench compare A [B]")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets []resultSet
	for _, p := range args {
		s, err := readResults(p)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	ok := compareSets(os.Stdout, append(bf.EndToEnd, bf.PerLayer...), sets)
	if !ok {
		fmt.Println("verdict: DISAGREE")
		os.Exit(1)
	}
	fmt.Println("verdict: agree within bounds")
	return nil
}

// readResults parses run outputs: a provenance line names the workload of
// the result line that follows it.
func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "provenance "):
			var p struct {
				Workload string `json:"workload"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "provenance ")), &p); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			workload = p.Workload
		case strings.HasPrefix(line, `{"correct"`):
			var res struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s: a %s run failed its correctness checks", path, workload)
			}
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
		}
	}
	return set, sc.Err()
}

// compareSets prints the table and reports whether every bounded metric
// is within its bound: each set's spread and, with two sets, the second
// median's change in the worse direction.
func compareSets(w io.Writer, bounds []bound, sets []resultSet) bool {
	ok := true
	var names []string
	for wl := range sets[0] {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "workload %s\n", wl)
		fmt.Fprintf(w, "  %-28s %-9s", "metric", "unit")
		for i := range sets {
			fmt.Fprintf(w, " | set %c: %-11s %-11s %-11s %-7s", 'A'+i, "median", "q1", "q3", "spread")
		}
		fmt.Fprintf(w, " | %-8s %-6s verdict\n", "change", "bound")
		for _, b := range bounds {
			if !slices.ContainsFunc(sets, func(s resultSet) bool { return len(s[wl][b.Name]) > 0 }) {
				continue
			}
			var meds []float64
			verdict := ""
			present := true
			fmt.Fprintf(w, "  %-28s %-9s", b.Name, b.Unit)
			for _, s := range sets {
				xs := s[wl][b.Name]
				if len(xs) == 0 {
					present = false
					fmt.Fprintf(w, " | %-40s", "(absent)")
					continue
				}
				sorted := slices.Clone(xs)
				slices.Sort(sorted)
				q1, q3 := sorted[0], sorted[len(sorted)-1]
				if len(sorted) >= 2 {
					q1, q3 = pyQuartiles(sorted)
				}
				sp := spread(xs)
				meds = append(meds, median(xs))
				fmt.Fprintf(w, " | n=%-2d %-11.5g %-11.5g %-11.5g %-7.3f", len(xs), median(xs), q1, q3, sp)
				if b.Bound > 0 && sp > b.Bound {
					verdict += " spread>bound"
				}
			}
			change := 0.0
			if len(meds) == 2 && meds[0] != 0 {
				change = (meds[1] - meds[0]) / meds[0]
				worse := change
				if b.Better == "higher" {
					worse = -change
				}
				if b.Bound > 0 && worse > b.Bound {
					verdict += " worse>bound"
				}
			}
			switch {
			case !present && len(sets) > 1:
				verdict += " missing"
			case b.Bound == 0:
				verdict = " (unbounded)"
			case verdict == "":
				verdict = " ok"
			}
			if strings.Contains(verdict, ">") || strings.Contains(verdict, "missing") {
				ok = false
			}
			fmt.Fprintf(w, " | %+-8.3f %-6.3g%s\n", change, b.Bound, verdict)
		}
	}
	return ok
}
