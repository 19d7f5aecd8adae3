package main

import (
	"fmt"
	"math/rand/v2"

	"phonocmap/internal/config"
	"phonocmap/internal/scenario"
	"phonocmap/internal/sweep"
)

// Every input the benchmark sends is generated here from the -seed
// argument. The program under test only ever sees the generated specs.
// Each generator draws from its own PCG stream, so adding a draw to one
// workload never shifts the inputs of another.

// Stream identifiers keep the generators' random sequences independent.
const (
	streamDense uint64 = iota + 1
	streamServe
	streamSweep
)

// newRand returns the deterministic source for one generator stream.
func newRand(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|index))
}

// denseAlgorithms and denseTopologies span the search_dense pass: every
// algorithm runs once on each topology.
var (
	denseAlgorithms = []string{"rpbla", "sa", "tabu", "ga", "memetic"}
	denseTopologies = []string{"mesh", "torus"}
)

// denseEdges is the edge count of every search_dense graph: about four
// per task. Evaluation cost grows with the edge count, so holding it
// fixed keeps the work per operation alike across seeds.
const denseEdges = 208

// denseApp generates a connected communication graph of 48–56 tasks and
// denseEdges edges: a random spanning tree for connectivity, then
// distinct random edges up to the target count.
func denseApp(r *rand.Rand, name string) config.AppSpec {
	n := 48 + r.IntN(9)
	edges := denseEdges
	app := config.AppSpec{Name: name}
	for i := 0; i < n; i++ {
		app.Tasks = append(app.Tasks, fmt.Sprintf("t%02d", i))
	}
	seen := make(map[[2]int]bool, edges)
	add := func(a, b int) {
		if a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		app.Edges = append(app.Edges, config.EdgeSpec{
			Src:       app.Tasks[a],
			Dst:       app.Tasks[b],
			Bandwidth: float64(10 + r.IntN(991)),
		})
	}
	for i := 1; i < n; i++ {
		j := r.IntN(i)
		if r.IntN(2) == 0 {
			add(i, j)
		} else {
			add(j, i)
		}
	}
	for len(app.Edges) < edges {
		add(r.IntN(n), r.IntN(n))
	}
	return app
}

// denseBudgets are the per-operation evaluation budgets of
// search_dense, by topology and algorithm. They keep optimization above
// 90% of each operation (an 8×8 compile takes 50–80 ms) and make every
// operation take about as long as the others, about 0.9 s: a mesh
// evaluates about 1.3 times slower than a torus, the population
// searchers about five times slower than the others, and sa and tabu
// differ a little from rpbla. With operations alike, the latency
// percentiles do not sit on a step between two kinds of operation.
var denseBudgets = map[string]map[string]int{
	"mesh":  {"rpbla": 1000, "sa": 1100, "tabu": 1000, "ga": 180, "memetic": 180},
	"torus": {"rpbla": 2100, "sa": 2000, "tabu": 2200, "ga": 350, "memetic": 330},
}

// densePass returns the search_dense operation list: every algorithm
// once on each topology, each scenario on its own generated graph. The
// order alternates topologies, so any prefix of the pass mixes
// algorithms and topologies evenly.
func densePass(seed int64) []scenario.Spec {
	n := len(denseAlgorithms)
	out := make([]scenario.Spec, 0, n*len(denseTopologies))
	for i := 0; i < n*len(denseTopologies); i++ {
		algo := denseAlgorithms[i%n]
		topology := denseTopologies[(i%n+i/n)%len(denseTopologies)]
		r := newRand(seed, streamDense, uint64(i))
		out = append(out, scenario.Spec{
			App:       denseApp(r, fmt.Sprintf("dense-%d-%d", seed, i)),
			Arch:      config.ArchSpec{Topology: topology, Width: 8, Height: 8},
			Objective: "snr",
			Algorithm: algo,
			Budget:    denseBudgets[topology][algo],
			Seed:      1 + r.Int64N(1<<30),
		})
	}
	return out
}

// paperApps are the builtin applications of the paper's Table II that
// serve_mixed and sweep_grid draw from.
var paperApps = []string{"PIP", "VOPD", "MWD", "MPEG-4", "263enc_mp3enc", "263dec_mp3dec"}

// Kinds of serve_mixed operations.
const (
	kindFresh  = "fresh"  // a spec never sent before: cache miss, store write
	kindRecent = "recent" // a repeat of a recent spec: LRU hit
	kindOld    = "old"    // a repeat from beyond the LRU's reach: store hit
	kindTwin   = "twin"   // both clients send the same fresh spec at once
)

// serveLRU is the service's default result-cache capacity; old repeats
// reach further back than this many distinct specs.
const serveLRU = 256

// serveOp is one generated serve_mixed request.
type serveOp struct {
	Kind string
	Spec scenario.Spec
	// Of is the index, in the same client's stream, of the operation
	// whose spec a repeat sends again (-1 otherwise).
	Of int
}

// serveStream generates one client's serve_mixed operations. Fresh specs
// get seeds no other operation uses, so their identity is unique; twins
// are drawn from a stream shared by both clients, so the two clients
// send the same spec at the same index. A repeat names the operation it
// repeats, and only operations the same client issued earlier, so it is
// answered from the cache whatever the interleaving of the clients.
//
// The shares of the kinds (one twin in serveTwinEvery operations; of
// the rest 25% recent and 12% old repeats, the others fresh) and of the
// spec fields in serveSpec are assumptions: the repository has no
// recorded service traffic. They are chosen so that every cache path
// carries a fair share of the load; README.md states them, and every run
// reports the shares it measured.
type serveStream struct {
	seed   int64
	client int
	ops    []serveOp
	// fresh lists the stream indices of fresh and twin operations in
	// order; lastUse maps a spec's first index to the position (in
	// fresh-count units) of its most recent use, so old repeats provably
	// fell out of the LRU.
	fresh   []int
	lastUse map[int]int
}

func newServeStream(seed int64, client int) *serveStream {
	return &serveStream{seed: seed, client: client, lastUse: map[int]int{}}
}

// serveTwinEvery is the spacing of twin submissions in the stream.
const serveTwinEvery = 40

// op returns the stream's i-th operation, generating up to it.
func (s *serveStream) op(i int) serveOp {
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.next(len(s.ops)))
	}
	return s.ops[i]
}

func (s *serveStream) next(i int) serveOp {
	if i%serveTwinEvery == serveTwinEvery-1 {
		// Shared stream: both clients draw the identical twin spec.
		r := newRand(s.seed, streamServe, uint64(1<<31|i))
		return s.record(i, serveOp{Kind: kindTwin, Spec: serveSpec(r, 2*int64(i)+1<<40), Of: -1})
	}
	r := newRand(s.seed, streamServe, uint64(s.client)<<30|uint64(i))
	u := r.Float64()
	nFresh := len(s.fresh)
	switch {
	case u < 0.25 && nFresh > 0:
		// Recent repeat: one of the last 32 fresh specs.
		back := 1 + r.IntN(min(32, nFresh))
		first := s.fresh[nFresh-back]
		return s.record(i, serveOp{Kind: kindRecent, Spec: s.ops[first].Spec, Of: first})
	case u < 0.37:
		// Old repeat: a spec this client last used more than serveLRU
		// fresh specs ago. At least that many distinct entries entered
		// the LRU after it, so the LRU has evicted it and the store
		// answers.
		var old []int
		for _, first := range s.fresh {
			if nFresh-s.lastUse[first] > serveLRU {
				old = append(old, first)
			}
		}
		if len(old) > 0 {
			first := old[r.IntN(len(old))]
			return s.record(i, serveOp{Kind: kindOld, Spec: s.ops[first].Spec, Of: first})
		}
	}
	return s.record(i, serveOp{Kind: kindFresh, Spec: serveSpec(r, int64(s.client)+2*int64(i)), Of: -1})
}

// record books the new operation's cache history.
func (s *serveStream) record(i int, op serveOp) serveOp {
	if op.Of < 0 {
		s.fresh = append(s.fresh, i)
		s.lastUse[i] = len(s.fresh)
	} else {
		s.lastUse[op.Of] = len(s.fresh)
	}
	return op
}

// serveAlgorithms are the searchers serve_mixed jobs use.
var serveAlgorithms = []string{"rpbla", "sa", "tabu", "ga", "memetic"}

// serveSpec draws one small-budget job on a paper application. About one
// in eight carries a cheap analyses block. unique makes the seed, and so
// the spec's identity, distinct from every other generated spec.
func serveSpec(r *rand.Rand, unique int64) scenario.Spec {
	spec := scenario.Spec{
		App:       config.AppSpec{Builtin: paperApps[r.IntN(len(paperApps))]},
		Arch:      config.ArchSpec{Topology: []string{"mesh", "torus"}[r.IntN(2)]},
		Objective: "snr",
		Algorithm: serveAlgorithms[r.IntN(len(serveAlgorithms))],
		Budget:    100 + 50*r.IntN(5),
		Seed:      1 + unique,
	}
	if r.IntN(8) == 0 {
		spec.Analyses = &scenario.AnalysesSpec{WDM: &scenario.WDMSpec{}, Power: &scenario.PowerSpec{}}
	}
	return spec
}

// sweepAlgorithms and sweepBudget shape every sweep_grid grid.
var sweepAlgorithms = []string{"rpbla", "sa", "ga"}

const sweepBudget = 150

// sweepSeeds is the number of distinct seed values per grid; one more
// entry repeats one of them so dedup has work.
const sweepSeeds = 3

// gridSpec generates the k-th grid of a run: paper apps × {mesh, torus}
// × {rpbla, sa, ga} × seeds, with fresh seed values (so no cell is
// cached from an earlier grid) and one seed value listed twice.
func gridSpec(seed int64, k int) sweep.Spec {
	r := newRand(seed, streamSweep, uint64(k))
	spec := sweep.Spec{
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr"},
		Algorithms: sweepAlgorithms,
		Budgets:    []int{sweepBudget},
	}
	for _, a := range paperApps {
		spec.Apps = append(spec.Apps, config.AppSpec{Builtin: a})
	}
	for i := 0; i < sweepSeeds; i++ {
		spec.Seeds = append(spec.Seeds, int64(k)<<20|int64(i)<<16|(1+r.Int64N(1<<15)))
	}
	dup := spec.Seeds[r.IntN(sweepSeeds)]
	spec.Seeds = append(spec.Seeds, dup)
	return spec
}
