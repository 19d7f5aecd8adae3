package main

import (
	"bytes"
	"sync"
	"time"

	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
)

// searchDense runs one closed-loop caller of runner.Local.RunScenario
// over the generated dense scenarios, pass after pass, until the window
// has passed and at least one full pass is done. Later passes repeat the
// first pass's specs, so every repeat must reproduce its first run.
func searchDense(rc *runCtx) error {
	pass := densePass(rc.seed)
	// Set-up generates and compiles every scenario of the pass once, so
	// the lazy parts of the first compile are not timed in the window.
	if _, err := timeSetup(rc, func() (struct{}, error) {
		for _, spec := range densePass(rc.seed) {
			if _, err := scenario.Compile(spec); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {}); err != nil {
		return err
	}

	local := runner.NewLocal()
	type op struct {
		res runner.ScenarioResult
		err error
		lat float64
	}
	var ops []op
	start := time.Now()
	for k := 0; k < len(pass) || time.Since(start) < rc.window; k++ {
		ctx, sp := rc.tr.begin(bg, "runner.run_scenario")
		t0 := time.Now()
		res, err := local.RunScenario(ctx, pass[k%len(pass)])
		lat := sinceS(t0)
		sp.end()
		ops = append(ops, op{res: res, err: err, lat: lat})
	}
	wall := sinceS(start)
	rc.windowEnded()

	// Output checks: the first pass's scores reproduce under a fresh
	// compile, and every later run of a spec is byte-identical to its
	// first run once the wall-clock fields are zeroed.
	first := make([][]byte, len(pass))
	var lats []float64
	evals := 0
	for k, o := range ops {
		i := k % len(pass)
		rc.attempted++
		lats = append(lats, o.lat)
		if !rc.check(o.err == nil, "search_dense op %d: %v", k, o.err) {
			rc.failed++
			continue
		}
		evals += o.res.Evals
		ok := true
		if k < len(pass) {
			ok = checkScore(rc, pass[i], o.res)
			first[i] = canonicalJSON(o.res)
			rc.digest.add(first[i])
		} else {
			ok = rc.check(bytes.Equal(canonicalJSON(o.res), first[i]),
				"search_dense op %d: repeat of scenario %d differs from its first run", k, i)
		}
		if !ok {
			rc.failed++
		}
	}

	rc.e2e("ops_per_s", float64(len(ops))/wall, len(ops))
	rc.e2e("latency_s_p50", median(lats), len(lats))
	rc.tail(lats)
	rc.e2e("evals_per_s", float64(evals)/wall, len(ops))
	rc.note("window %.2fs: %d scenarios in %.2f passes of %d", wall, len(ops), float64(len(ops))/float64(len(pass)), len(pass))

	if rc.tr == nil || rc.failed > 0 {
		return nil
	}
	results := make([]runner.ScenarioResult, len(pass))
	for i := range pass {
		results[i] = ops[i].res
	}
	return traceLayers(rc, pass, results, mean(lats), len(ops), wall)
}

// checkScore is the score-reproduction check: a fresh compile of the
// spec must score the returned mapping exactly as the run reported.
func checkScore(rc *runCtx, spec scenario.Spec, res runner.ScenarioResult) bool {
	comp, err := scenario.Compile(spec)
	if !rc.check(err == nil, "compile %s: %v", spec.Key(), err) {
		return false
	}
	got, err := comp.Problem.Evaluate(res.Mapping)
	if !rc.check(err == nil, "evaluate %s: %v", spec.Key(), err) {
		return false
	}
	return rc.check(got == res.Score, "%s/%s seed %d: reported score %+v, fresh evaluation %+v",
		spec.App.Name+spec.App.Builtin, spec.Algorithm, spec.Seed, res.Score, got)
}

// checkScores runs checkScore on every (spec, result) pair, on two
// goroutines since the checks run after the window, and reports which
// pairs passed.
func checkScores(rc *runCtx, specs []scenario.Spec, results []runner.ScenarioResult) []bool {
	ok := make([]bool, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += 2 {
				ok[i] = checkScore(rc, specs[i], results[i])
			}
		}(w)
	}
	wg.Wait()
	return ok
}

// traceLayers runs the layer probes on a traced run's specs and results
// and records the span-derived metrics shared by every workload.
func traceLayers(rc *runCtx, specs []scenario.Spec, results []runner.ScenarioResult, opSeconds float64, ops int, wall float64) error {
	probs, err := probeScenarios(rc, specs, results)
	if err != nil {
		return err
	}
	if len(probs) > coreProblems {
		probs = probs[:coreProblems]
	}
	if err := probeCore(rc, probs); err != nil {
		return err
	}
	spans := rc.tr.snapshot()
	layerMetrics(rc, spans, results, opSeconds)
	rc.layer("trace.ops_per_s", float64(ops)/wall)
	return nil
}

// coreProblems bounds how many of a workload's problems the core probe
// times.
const coreProblems = 4
