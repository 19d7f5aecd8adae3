package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileIsNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.75, 75}, {0.99, 99}, {1, 100},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 100 || xs[99] != 1 {
		t.Errorf("quantile reordered its argument")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("one sample: p99 = %v, want 7", got)
	}
	if got, m := quantile(nil, 0.5), mean(nil); got != 0 || m != 0 {
		t.Errorf("empty sample: p50 %v mean %v, want 0 and 0", got, m)
	}
	if m := mean([]float64{5, 1, 4, 2, 3}); !near(m, 3) {
		t.Errorf("mean = %v, want 3", m)
	}
}

// latency_s_tail is one fixed quantile per workload, whatever the
// sample count, so runs with different throughput report the same
// percentile; the report says which one and of how many samples.
func TestTailIsAFixedQuantilePerWorkload(t *testing.T) {
	for name := range workloads {
		if q, ok := tailQ[name]; !ok || q < 0.5 || q > 0.99 {
			t.Errorf("workload %s: tail quantile %v, %v", name, q, ok)
		}
	}
	for _, n := range []int{33, 37, 40} {
		var xs []float64
		for i := 1; i <= n; i++ {
			xs = append(xs, float64(i))
		}
		rc := &runCtx{workload: "sweep_grid", metrics: map[string]measured{}}
		rc.tail(xs)
		m := rc.metrics["latency_s_tail"]
		if want := quantile(xs, 0.75); m.Value != want || m.N != n {
			t.Errorf("%d samples: tail %+v, want the 75th percentile %v with n=%d", n, m, want, n)
		}
		if want := fmt.Sprintf("75th percentile of %d latencies", n); len(rc.notes) != 1 || !strings.Contains(rc.notes[0], want) {
			t.Errorf("%d samples: notes %q lack %q", n, rc.notes, want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if !near(q1, tc.want[0]) || !near(med, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, med, q3, tc.want)
		}
	}
}

func TestReportPrintsSampleCounts(t *testing.T) {
	rc := &runCtx{workload: "search_dense", metrics: map[string]measured{}}
	rc.e2e("latency_s_p50", 0.25, 42)
	rc.e2e("setup_s", 1.5, setupReps)
	var buf bytes.Buffer
	report(&buf, rc, result{Attempted: 42}, endToEnd)
	out := buf.String()
	for _, want := range []string{"latency_s_p50", "n=42", "setup_s", fmt.Sprintf("n=%d", setupReps), "failed_ratio", "unvalidated"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if m := rc.metrics["latency_s_p50"]; m.N != 42 || m.Unit != "s" {
		t.Errorf("e2e recorded %+v, want n=42 unit s", m)
	}
}

func TestTimeSetupRepeatsQuickSetUps(t *testing.T) {
	rc := &runCtx{workload: "serve_mixed", metrics: map[string]measured{}}
	boots, downs := 0, 0
	env, err := timeSetup(rc, func() (int, error) { boots++; return boots, nil }, func(e int) {
		downs++
		if e != downs {
			t.Errorf("tore down environment %d, want %d", e, downs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A set-up far below setupMinTime repeats up to the cap; every
	// environment but the returned last one is torn down.
	if boots != setupMaxReps || downs != setupMaxReps-1 || env != setupMaxReps {
		t.Errorf("boots %d, teardowns %d, returned %d; want %d, %d, %d", boots, downs, env, setupMaxReps, setupMaxReps-1, setupMaxReps)
	}
	if got := rc.metrics["setup_s"].N; got != setupMaxReps {
		t.Errorf("setup_s has %d samples, want %d", got, setupMaxReps)
	}
}
