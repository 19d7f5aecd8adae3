package main

import (
	"sort"

	"phonocmap/internal/stats"
)

// tailQ is the quantile latency_s_tail reports, fixed per workload so
// that every run of a workload measures the same percentile whatever
// its sample count. serve_mixed completes thousands of jobs in a run,
// enough for a 99th percentile. search_dense (about 40 scenarios) and
// sweep_grid (about 45 grids) do not: their 99th percentile would be the
// slowest sample, so they report the 75th.
var tailQ = map[string]float64{
	"search_dense": 0.75,
	"serve_mixed":  0.99,
	"sweep_grid":   0.75,
}

// mean of xs, 0 when xs is empty.
func mean(xs []float64) float64 {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

// quantile returns the nearest-rank q-quantile of xs, 0 when xs is
// empty. It does not reorder xs.
func quantile(xs []float64, q float64) float64 {
	var e stats.ECDF
	for _, x := range xs {
		e.Add(x)
	}
	v, _ := e.Quantile(q)
	return v
}

// median of xs, 0 when xs is empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads computed here match the ones computed from the same values
// in Python. It needs at least two values; one value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q = append(q, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/n)
	}
	return q[0], q[1], q[2]
}

// ratio returns num/den, or 0 when den is 0, so an unexercised layer
// reports 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
