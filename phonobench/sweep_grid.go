package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"net/url"
	"strconv"
	"strings"
	"time"

	"phonocmap/client"
	"phonocmap/internal/config"
	"phonocmap/internal/fleet"
	"phonocmap/internal/obs"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/sweep"
)

// sweepDigestGrids is how many grids every run completes; their results
// make up the output digest.
const sweepDigestGrids = 2

// sweepEnv is the sweep_grid deployment: one 2-worker node behind the
// SDK's RunSweep, and a fleet coordinator over two 1-worker nodes.
type sweepEnv struct {
	single *node
	sdk    *client.Client
	pair   [2]*node
	fleet  *fleet.Runner
	reg    *obs.Registry
}

func bootSweepEnv(rc *runCtx) (*sweepEnv, error) {
	e := &sweepEnv{reg: obs.NewRegistry()}
	var err error
	// The node keeps the last few finished sweeps only (the default is
	// 128), so its memory reflects one sweep's cost and not how many
	// grids a run gets through.
	if e.single, err = bootNode(rc, service.Config{Workers: 2, MaxSweeps: 4}, ""); err != nil {
		return nil, err
	}
	// The SDK client has its default poll policy, as the CLI's has:
	// RunSweep polls the sweep's status, from 50 ms doubling up to 2 s
	// with full jitter, so the poll wait is part of a grid's latency.
	if e.sdk, err = e.single.client(); err != nil {
		return nil, err
	}
	var urls []string
	for i := range e.pair {
		if e.pair[i], err = bootNode(rc, service.Config{Workers: 1}, ""); err != nil {
			return nil, err
		}
		urls = append(urls, e.pair[i].ts.URL)
	}
	e.fleet, err = fleet.New(fleet.Config{
		Servers:       urls,
		ProbeInterval: 10 * time.Second,
		ClientOptions: []client.Option{client.WithHTTPClient(e.pair[0].http)},
		Registry:      e.reg,
	})
	if err != nil {
		return nil, err
	}
	warm := sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: "PIP"}},
		Algorithms: []string{"rpbla"},
		Budgets:    []int{50},
		Seeds:      []int64{1, 2},
	}
	// The warm-up sweep takes a few milliseconds; a client that polls
	// every 5 ms sees it end then, where the default policy's first,
	// jittered 50 ms sleep would make up most of setup_s and its spread.
	// The measured grids use e.sdk, with the default policy.
	warmSDK, err := e.single.client(client.WithPollInterval(5*time.Millisecond), client.WithMaxPollInterval(5*time.Millisecond))
	if err != nil {
		return nil, err
	}
	if _, err := warmSDK.RunSweep(bg, warm, runner.SweepOptions{}); err != nil {
		return nil, err
	}
	if _, err := e.fleet.RunSweep(bg, warm, runner.SweepOptions{}); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *sweepEnv) close() {
	e.fleet.Close()
	e.single.close()
	for _, n := range e.pair {
		n.close()
	}
}

func (e *sweepEnv) nodes() []*node { return []*node{e.single, e.pair[0], e.pair[1]} }

// totalEvals sums the evaluations the three nodes have performed.
func (e *sweepEnv) totalEvals() (int64, error) {
	total := int64(0)
	for _, n := range e.nodes() {
		v, err := n.totalEvals()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// sweepGrid runs each generated grid once through client.RunSweep on the
// 2-worker node and once through the fleet, grid after grid, until the
// window has passed and at least sweepDigestGrids grids are done. Every
// grid has fresh seeds, so no cell is answered from an earlier grid.
func sweepGrid(rc *runCtx) error {
	e, err := timeSetup(rc, func() (*sweepEnv, error) { return bootSweepEnv(rc) }, (*sweepEnv).close)
	if err != nil {
		return err
	}
	defer e.close()

	// An iter keeps the service path's cells for the checks after the
	// window, and which cells the fleet returned differently; the
	// aggregates and the fleet's copy are compared and dropped at once,
	// so memory does not grow with the number of grids a run completes.
	type iter struct {
		size         int // cells in the grid, per executor
		cells        []runner.SweepCellResult
		sum          [sha256.Size]byte
		same         bool  // the two SweepResults are byte-identical
		differ       []int // cells whose two copies differ
		errS, errF   error
		lat, sdkS, f float64
	}
	var iters []iter
	fleet0 := promValues(e.reg)
	evals0, err := e.totalEvals()
	if err != nil {
		return err
	}
	start := time.Now()
	var jt *jobTimes
	if rc.tr != nil {
		jt = collectJobs(e.nodes(), start)
	}
	for k := 0; k < sweepDigestGrids || time.Since(start) < rc.window; k++ {
		spec := gridSpec(rc.seed, k)
		it := iter{size: spec.Size()}
		t0 := time.Now()
		ctx, sp := rc.tr.begin(bg, "client.run_sweep")
		viaSDK, errS := e.sdk.RunSweep(ctx, spec, runner.SweepOptions{})
		sp.end()
		t1 := time.Now()
		ctx, sp = rc.tr.begin(bg, "fleet.run_sweep")
		viaF, errF := e.fleet.RunSweep(ctx, spec, runner.SweepOptions{})
		sp.end()
		it.lat, it.sdkS, it.f = sinceS(t0), t1.Sub(t0).Seconds(), sinceS(t1)
		it.errS, it.errF = errS, errF
		if errS == nil && errF == nil {
			a := mustJSON(viaSDK)
			it.cells, it.sum, it.same = viaSDK.Cells, sha256.Sum256(a), bytes.Equal(a, mustJSON(viaF))
			if !it.same {
				for i, c := range viaSDK.Cells {
					if i >= len(viaF.Cells) || !bytes.Equal(mustJSON(c), mustJSON(viaF.Cells[i])) {
						it.differ = append(it.differ, i)
					}
				}
			}
		}
		iters = append(iters, it)
	}
	wall := sinceS(start)
	rc.windowEnded()
	if jt != nil {
		if err := jt.finish(); err != nil {
			return err
		}
	}
	evals1, err := e.totalEvals()
	if err != nil {
		return err
	}

	// Output checks, per cell: both executors return byte-identical
	// results, no cell fails, each distinct cell's score reproduces under
	// a fresh compile, and cells that share a spec (the duplicated seed)
	// carry identical results. An operation is one cell through one
	// executor, so a bad cell fails both of its copies, and a grid whose
	// executors err, or disagree on the aggregates alone, fails all its
	// cells.
	var lats []float64
	cells, needed, ifAll := 0, 0, 0
	var sdkS, fleetS float64
	var probeSpecs []scenario.Spec
	var probeResults []runner.ScenarioResult
	var scoreSpecs []scenario.Spec
	var scoreResults []runner.ScenarioResult
	type cellRef struct{ grid, cell int }
	var scoreCells []cellRef
	bad := make([]map[int]bool, len(iters)) // failed cells per grid
	for k, it := range iters {
		rc.attempted += 2 * it.size
		cells += 2 * it.size
		lats = append(lats, it.lat)
		sdkS, fleetS = sdkS+it.sdkS, fleetS+it.f
		if !rc.check(it.errS == nil && it.errF == nil, "sweep_grid grid %d: service %v, fleet %v", k, it.errS, it.errF) {
			rc.failed += 2 * it.size
			continue
		}
		if !rc.check(it.same, "sweep_grid grid %d: service and fleet results differ in %d of %d cells", k, len(it.differ), it.size) && len(it.differ) == 0 {
			rc.failed += 2 * it.size
			continue
		}
		if !rc.check(len(it.cells) == it.size, "sweep_grid grid %d: %d cells, want %d", k, len(it.cells), it.size) {
			rc.failed += 2 * it.size
			continue
		}
		bad[k] = map[int]bool{}
		for _, i := range it.differ {
			bad[k][i] = true
		}
		if k < sweepDigestGrids {
			rc.digest.add(it.sum[:])
		}
		seen := map[string][]byte{}
		for i, c := range it.cells {
			ifAll += 2 * c.Evals
			if !rc.check(c.Error == "", "sweep_grid grid %d cell %d: %s", k, c.Index, c.Error) {
				bad[k][i] = true
				continue
			}
			spec := c.Cell.Scenario()
			key := spec.Key()
			c.Index = 0
			b := mustJSON(c)
			if want, dup := seen[key]; dup {
				if !rc.check(bytes.Equal(b, want), "sweep_grid grid %d cell %d: duplicate cells differ", k, i) {
					bad[k][i] = true
				}
				continue
			}
			seen[key] = b
			needed += 2 * c.Evals
			res := runner.ScenarioResult{Mapping: c.Mapping, Score: c.Score, Evals: c.Evals, Algorithm: c.Cell.Algorithm}
			scoreSpecs, scoreResults, scoreCells = append(scoreSpecs, spec), append(scoreResults, res), append(scoreCells, cellRef{k, i})
			if k == 0 {
				probeSpecs = append(probeSpecs, spec)
				probeResults = append(probeResults, res)
			}
		}
	}
	for i, ok := range checkScores(rc, scoreSpecs, scoreResults) {
		if !ok {
			bad[scoreCells[i].grid][scoreCells[i].cell] = true
		}
	}
	for _, b := range bad {
		rc.failed += 2 * len(b)
	}

	rc.e2e("ops_per_s", float64(cells)/wall, cells)
	rc.e2e("latency_s_p50", median(lats), len(lats))
	rc.tail(lats)
	rc.e2e("evals_per_s", float64(evals1-evals0)/wall, cells)
	rc.note("window %.2fs: %d grids of %d cells, each through the service and the fleet", wall, len(iters), cells/max(1, 2*len(iters)))

	if rc.tr == nil || rc.failed > 0 {
		return nil
	}
	performed := float64(evals1 - evals0)
	rc.layer("service.duplicate_eval_ratio", ratio(performed, float64(needed))-1)
	rc.layer("sweep.dedup_ratio", 1-ratio(performed, float64(ifAll)))
	rc.layer("service.sweep_cells_per_s", ratio(float64(cells/2), sdkS))
	rc.layer("fleet.cells_per_s", ratio(float64(cells/2), fleetS))
	fleet1 := promValues(e.reg)
	for _, c := range []string{"dispatched", "deduped", "retried"} {
		name := "phonocmap_fleet_cells_" + c + "_total"
		rc.layer("fleet.cells_"+c, fleet1[name]-fleet0[name])
	}
	perNode := map[string]float64{}
	for _, s := range rc.tr.snapshot() {
		if s.Name == "client.submit" {
			perNode[s.Node]++
		}
	}
	lo, hi := -1.0, 0.0
	for _, n := range e.pair {
		u, _ := url.Parse(n.ts.URL)
		v := perNode[u.Host]
		if lo < 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	rc.layer("fleet.node_balance", ratio(lo, hi))
	serviceLayers(rc, e.nodes(), jt)
	return traceLayers(rc, probeSpecs, probeResults, ratio(sdkS+fleetS, float64(cells)), cells, wall)
}

// promValues reads the unlabelled samples of a metrics registry.
func promValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}
