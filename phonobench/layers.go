package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/topo"
)

// The layer probes run after the measured window of a traced run. They
// call the public functions of the network, scenario and core modules
// one by one, on the workload's own specs and results, so each layer
// gets its own span.

// probeScenarios times, for each spec and the result the workload got
// for it, the network build, the compile and the analyses as separate
// spans under one "probe" span. It returns the compiled problems for
// the core probe.
func probeScenarios(rc *runCtx, specs []scenario.Spec, results []runner.ScenarioResult) ([]*core.Problem, error) {
	probs := make([]*core.Problem, 0, len(specs))
	for i, spec := range specs {
		ctx, probe := rc.tr.begin(bg, "probe.scenario")
		norm := spec
		if _, err := norm.Normalize(); err != nil {
			return nil, err
		}
		_, sp := rc.tr.begin(ctx, "network.build")
		if _, err := norm.Arch.Build(); err != nil {
			return nil, err
		}
		sp.end()
		_, sp = rc.tr.begin(ctx, "scenario.compile")
		comp, err := scenario.Compile(spec)
		sp.end()
		if err != nil {
			return nil, err
		}
		_, sp = rc.tr.begin(ctx, "scenario.analyze")
		_, err = comp.Analyze(results[i].Mapping, results[i].Score)
		sp.end()
		if err != nil {
			return nil, err
		}
		probe.end()
		probs = append(probs, comp.Problem)
	}
	return probs, nil
}

// coreNeighbours is the number of single-swap neighbours of a random
// base mapping each core probe scores.
const coreNeighbours = 24

// probeCore times the three evaluation engines on the same single-swap
// neighbours of a random mapping of each problem: full evaluation
// (Problem.Evaluate), incremental evaluation (SwapSession.EvaluateSwap
// then Revert) and batch evaluation (Context.EvaluateBatch at one
// worker). The engines are bit-identical by contract, so every score is
// checked against the full evaluation.
func probeCore(rc *runCtx, probs []*core.Problem) error {
	for pi, prob := range probs {
		rng := rand.New(rand.NewSource(rc.seed*7919 + int64(pi)))
		base, err := core.RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
		if err != nil {
			return err
		}
		taskOf := make([]int, prob.NumTiles())
		for t := range taskOf {
			taskOf[t] = -1
		}
		for task, tile := range base {
			taskOf[tile] = task
		}
		type pair struct{ a, b topo.TileID }
		var pairs []pair
		var cands []core.Mapping
		for len(pairs) < coreNeighbours {
			a, b := rng.Intn(prob.NumTiles()), rng.Intn(prob.NumTiles())
			if a == b || (taskOf[a] < 0 && taskOf[b] < 0) {
				continue
			}
			cand := base.Clone()
			if ta := taskOf[a]; ta >= 0 {
				cand[ta] = topo.TileID(b)
			}
			if tb := taskOf[b]; tb >= 0 {
				cand[tb] = topo.TileID(a)
			}
			pairs = append(pairs, pair{topo.TileID(a), topo.TileID(b)})
			cands = append(cands, cand)
		}

		want := make([]core.Score, len(cands))
		_, sp := rc.tr.begin(bg, "core.full_eval")
		for i, c := range cands {
			if want[i], err = prob.Evaluate(c); err != nil {
				return err
			}
		}
		sp.end()

		sess, err := prob.NewSwapSession(base)
		if err != nil {
			return err
		}
		_, sp = rc.tr.begin(bg, "core.swap_eval")
		for i, p := range pairs {
			got, err := sess.EvaluateSwap(p.a, p.b)
			if err != nil {
				return err
			}
			if err := sess.Revert(); err != nil {
				return err
			}
			if got != want[i] {
				rc.check(false, "core: swap score %+v != full score %+v", got, want[i])
			}
		}
		sp.end()
		sess.Release()

		ctx, err := core.NewContext(prob, rng, math.MaxInt/2)
		if err != nil {
			return err
		}
		ctx.SetEvalWorkers(1)
		_, sp = rc.tr.begin(bg, "core.batch_eval")
		got, _, err := ctx.EvaluateBatch(cands)
		sp.end()
		ctx.Close()
		if err != nil {
			return err
		}
		for i := range got {
			if got[i] != want[i] {
				rc.check(false, "core: batch score %+v != full score %+v", got[i], want[i])
			}
		}
	}
	return nil
}

// layerMetrics derives the network, scenario, search and core metrics
// from the probe spans and the workload's results. opSeconds is the mean
// end-to-end operation time the compile share is taken of.
func layerMetrics(rc *runCtx, spans []span, results []runner.ScenarioResult, opSeconds float64) {
	compile := mean(named(spans, "scenario.compile"))
	rc.layer("network.build_ms", 1000*mean(named(spans, "network.build")))
	rc.layer("scenario.compile_s_mean", compile)
	rc.layer("scenario.compile_share", ratio(compile, opSeconds))
	rc.layer("scenario.analyze_s_mean", mean(named(spans, "scenario.analyze")))

	var optimize []float64
	evals := map[string]float64{}
	secs := map[string]float64{}
	snr := 0.0
	for _, r := range results {
		snr += r.Score.WorstSNRDB
		if r.Trace == nil {
			continue // sweep cells carry no run trace
		}
		d := r.Trace.DurationMs / 1000
		optimize = append(optimize, d)
		evals[r.Algorithm] += float64(r.Evals)
		secs[r.Algorithm] += d
	}
	if len(optimize) > 0 {
		rc.layer("scenario.optimize_s_mean", mean(optimize))
	}
	for _, a := range denseAlgorithms {
		if secs[a] > 0 {
			rc.layer(fmt.Sprintf("search.%s.evals_per_s", a), evals[a]/secs[a])
		}
	}
	rc.layer("search.snr_db_mean", ratio(snr, float64(len(results))))

	perEval := func(name string) float64 {
		total := 0.0
		for _, d := range named(spans, name) {
			total += d
		}
		n := float64(coreNeighbours * len(named(spans, name)))
		return 1e6 * ratio(total, n)
	}
	full, swap, batch := perEval("core.full_eval"), perEval("core.swap_eval"), perEval("core.batch_eval")
	rc.layer("core.full_eval_us", full)
	rc.layer("core.swap_eval_us", swap)
	rc.layer("core.batch_eval_us", batch)
	rc.layer("core.incremental_speedup", ratio(full, swap))
	rc.layer("core.batch_vs_swap", ratio(batch, swap))
}

// sinceS is the wall time since t in seconds.
func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
