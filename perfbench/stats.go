package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// counts), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail describes a latency sample set the way the benchmark reports every
// timing: its median plus the highest standard percentile that still has
// at least ten samples beyond it, with the sample count.
func tail(xs []float64) string {
	n := len(xs)
	out := fmt.Sprintf("(n=%d median %.4g", n, median(xs))
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			out += fmt.Sprintf(" p%g %.4g", q*100, quantile(xs, q))
			break
		}
	}
	return out + ")"
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 4 || m == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q1, q3 := pyQuartiles(s)
	return (q3 - q1) / math.Abs(m)
}

// pyQuartiles reproduces Python's statistics.quantiles(data, n=4) with its
// default exclusive method on sorted data of at least two samples.
func pyQuartiles(s []float64) (q1, q3 float64) {
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
