package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := metricDef{Name: "latency_s_p50", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"faster throughput", higher, base, shift(base, 1.2), "improved"},
		{"slower throughput", higher, base, shift(base, 0.8), "regressed"},
		{"within the bound", higher, base, shift(base, 0.95), "unchanged"},
		{"same runs", higher, base, base, "unchanged"},
		{"lower latency", lower, base, shift(base, 0.8), "improved"},
		{"higher latency", lower, base, shift(base, 1.3), "regressed"},
		{"noisy parent", higher, []float64{50, 150, 60, 140, 100}, []float64{90, 91, 92, 93, 94}, "unresolved"},
		{"unbounded metric never regresses", metricDef{Better: "higher"}, base, shift(base, 0.5), "unchanged"},
	} {
		if got := compareMetric(tc.d, tc.parent, tc.change).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReadsRecordFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			for trace, name := range []string{"ops_per_s", "trace.ops_per_s"} {
				v := (100 + float64(i%3)) * f
				if trace == 1 {
					v *= 0.95
				}
				rec := recordLine{Workload: "serve_mixed", Seed: int64(i), Trace: trace, Result: result{
					Correct: true, Attempted: 1,
					Metrics: map[string]measured{name: {Value: v, Unit: "1/s"}},
				}}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	var out bytes.Buffer
	if err := runCompare(&out, write("parent.jsonl", 1), write("change.jsonl", 1.5)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"serve_mixed", "ops_per_s", "10/10", "improved", "tracing overhead (parent, serve_mixed): 5.00%"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}

// BENCHMARK.json at the checkout root describes the benchmark to the
// tools that run it; it must list exactly the workloads and end-to-end
// metrics this program reports, with the same units, directions and
// bounds, and every per-layer metric.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nprogram %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v\nprogram %+v", spec.PerLayer, perLayer)
	}
}
