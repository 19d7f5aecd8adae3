// Command phonobench is phonocmap's benchmark: three seed-generated
// workloads run against the public API, every operation's output
// checked, every end-to-end metric printed by name and unit, and a
// traced mode that adds per-layer metrics. See README.md.
//
// Usage:
//
//	phonobench --workload search_dense --seed 1 --seconds 25 --trace 0
//	phonobench --workload serve_mixed --seed 1 --update-digests
//	phonobench --compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// bg is the root context of every call the benchmark makes.
var bg = context.Background()

// defaultSeed is the seed whose outputs are pinned by digests.json.
const defaultSeed = 1

// digestsPath holds the reference output digests, relative to the root
// of the checkout the benchmark runs from.
var digestsPath = filepath.Join("phonobench", "digests.json")

// A run sets its workload up at least setupReps times, and more, up to
// setupMaxReps, until setupMinTime of set-up has been timed, so that a
// set-up of a few milliseconds still gives a steady median. setup_s is
// the median.
const (
	setupReps    = 5
	setupMaxReps = 100
	setupMinTime = 2 * time.Second
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runCtx) error{
	"search_dense": searchDense,
	"serve_mixed":  serveMixed,
	"sweep_grid":   sweepGrid,
}

// measured is one reported metric value with its sample count.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// buildDir is where build outputs, scratch stores and traces go:
// $CARGO_TARGET_DIR, or .bench_build in the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// runCtx is the state of one benchmark run.
type runCtx struct {
	workload string
	seed     int64
	window   time.Duration
	tr       *tracer // nil with tracing off
	tmp      string  // scratch directory inside the checkout

	attempted, failed int
	mu                sync.Mutex // guards problems
	problems          []string
	metrics           map[string]measured
	digest            digest
	notes             []string
}

// e2e records an end-to-end metric with its sample count.
func (rc *runCtx) e2e(name string, v float64, n int) {
	d, _ := defOf(name)
	rc.metrics[name] = measured{Value: v, Unit: d.Unit, N: n}
}

// tail records latency_s_tail, the workload's fixed tail quantile of
// its operation latencies, and notes which percentile it is.
func (rc *runCtx) tail(lats []float64) {
	q := tailQ[rc.workload]
	rc.e2e("latency_s_tail", quantile(lats, q), len(lats))
	rc.note("latency_s_tail is the %gth percentile of %d latencies", 100*q, len(lats))
}

// layer records a per-layer metric (traced runs only).
func (rc *runCtx) layer(name string, v float64) {
	if rc.tr == nil {
		return
	}
	d, _ := defOf(name)
	rc.metrics[name] = measured{Value: v, Unit: d.Unit}
}

// check records a failed output check. It returns ok so callers can
// fold checks into an operation's verdict.
func (rc *runCtx) check(ok bool, format string, args ...any) bool {
	if !ok {
		rc.mu.Lock()
		rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
		rc.mu.Unlock()
	}
	return ok
}

// note adds a line to the human-readable report.
func (rc *runCtx) note(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// timeSetup runs boot as often as the set-up constants say and records
// the median as setup_s. Every environment but the last is torn down;
// the last is returned for the measured window.
func timeSetup[E any](rc *runCtx, boot func() (E, error), teardown func(E)) (E, error) {
	var times []float64
	total := 0.0
	for {
		t0 := time.Now()
		e, err := boot()
		if err != nil {
			return e, err
		}
		times = append(times, sinceS(t0))
		total += times[len(times)-1]
		n := len(times)
		if n >= setupMaxReps || (n >= setupReps && total >= setupMinTime.Seconds()) {
			rc.e2e("setup_s", median(times), n)
			return e, nil
		}
		teardown(e)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("phonobench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: search_dense, serve_mixed or sweep_grid")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 35, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs with tracing on and reports per-layer metrics")
	update := fs.Bool("update-digests", false, "rewrite this workload's reference digest in "+digestsPath+" instead of checking it (default seed only)")
	record := fs.String("record", "", "append this run's result to a JSON-lines file, for --compare")
	compare := fs.Bool("compare", false, "compare two --record files: phonobench --compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "phonobench: --compare needs two record files: PARENT CHANGE")
			return 2
		}
		if err := runCompare(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "phonobench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "phonobench: need --workload search_dense|serve_mixed|sweep_grid, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if *update && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "phonobench: --update-digests pins the default seed %d only\n", defaultSeed)
		return 2
	}

	rc := &runCtx{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		metrics:  map[string]measured{},
		tmp:      filepath.Join(buildDir(), "phonobench-tmp", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
	}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "phonobench:", err)
		return 1
	}
	err := drive(rc)
	os.RemoveAll(rc.tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phonobench: %s: %v\n", *workload, err)
		return 1
	}

	if *seed == defaultSeed {
		if err := checkDigest(rc, digestsPath, *update); err != nil {
			fmt.Fprintln(os.Stderr, "phonobench:", err)
			return 1
		}
	}
	if rc.tr != nil {
		spans := rc.tr.snapshot()
		path := filepath.Join(buildDir(), "phonobench-traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "phonobench:", err)
			return 1
		}
		rc.note("spans: %d written to %s", len(spans), path)
	}

	res := result{
		Correct:   len(rc.problems) == 0 && rc.failed == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]measured{},
	}
	table := endToEnd
	if rc.tr != nil {
		table = perLayer
	}
	for _, d := range table {
		m, ok := rc.metrics[d.Name]
		if !ok {
			m = measured{Unit: d.Unit} // layer not exercised by this workload
		}
		res.Metrics[d.Name] = measured{Value: m.Value, Unit: m.Unit}
	}
	report(os.Stdout, rc, res, table)
	if *record != "" {
		if err := appendRecord(*record, recordLine{Workload: *workload, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "phonobench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// recordLine is one run in a --record file.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r recordLine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the human-readable summary of a run: every metric of
// the table with its unit and sample count, the failure ratio, notes and
// failed checks.
func report(w io.Writer, rc *runCtx, res result, table []metricDef) {
	mode := "untraced"
	if rc.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "phonobench %s seed=%d window=%s %s\n", rc.workload, rc.seed, rc.window, mode)
	for _, d := range table {
		m, ok := rc.metrics[d.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-30s %14s %-6s (not exercised by this workload)\n", d.Name, "0", d.Unit)
		case m.N > 0:
			fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%d\n", d.Name, m.Value, d.Unit, m.N)
		default:
			fmt.Fprintf(w, "  %-30s %14.6g %-6s\n", d.Name, m.Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "  %-30s %14.6g %-6s failed=%d attempted=%d\n", "failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	for _, n := range rc.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintln(w, "  accuracy: none reported; the photonic model has no hardware reference data and is unvalidated")
	for i, p := range rc.problems {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more failed checks\n", len(rc.problems)-i)
			break
		}
		fmt.Fprintln(w, "  FAILED CHECK: "+p)
	}
}

// windowEnded records max_rss_mb when a workload's measured window
// closes, before the checks and probes allocate for themselves.
func (rc *runCtx) windowEnded() {
	rc.e2e("max_rss_mb", maxRSSMB(), 1)
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkDigest compares the run's output digest with the reference for
// its workload, or rewrites the reference in update mode.
func checkDigest(rc *runCtx, path string, update bool) error {
	got := rc.digest.sum()
	refs := map[string]string{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist) || !update:
		return fmt.Errorf("reference digests: %w", err)
	}
	if update {
		refs[rc.workload] = got
		out, err := json.MarshalIndent(refs, "", "  ")
		if err != nil {
			return err
		}
		rc.note("digest %s written to %s", got, path)
		return os.WriteFile(path, append(out, '\n'), 0o644)
	}
	want, ok := refs[rc.workload]
	rc.check(ok, "no reference digest for %s in %s (run with --update-digests)", rc.workload, path)
	if ok {
		if rc.check(got == want, "output digest %s differs from the reference %s in %s", got, want, path) {
			rc.note("output digest matches the reference for seed %d", defaultSeed)
		}
	}
	return nil
}
