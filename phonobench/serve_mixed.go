package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"phonocmap/client"
	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/store"
	"phonocmap/internal/topo"
)

// serveDigestOps is how many operations of each client's stream every
// run completes; their results make up the output digest.
const serveDigestOps = 300

// serveProcs is the GOMAXPROCS serve_mixed runs with.
const serveProcs = 1

// serveWarmup precedes the measured window. Old repeats need more than
// serveLRU fresh specs of history, and the LRU and the store fill up,
// during the first seconds; operations that complete in the warm-up
// are checked but not measured.
const serveWarmup = 5 * time.Second

// node is one in-process phonocmap-serve instance on a loopback port.
type node struct {
	srv   *service.Server
	ts    *httptest.Server
	base  *http.Transport
	http  *http.Client // base, behind the tracing transport when traced
	store *tracedStore // nil unless traced with a persistent store
	dir   string
}

// bootNode starts a server with the given configuration and, when dir
// is set, a file store there. Traced runs wrap the store and the client
// transport in the benchmark's decorators.
func bootNode(rc *runCtx, cfg service.Config, dir string) (*node, error) {
	n := &node{dir: dir}
	if dir != "" {
		fs, err := store.OpenFile(dir, store.FileOptions{})
		if err != nil {
			return nil, err
		}
		cfg.Store = fs
		if rc.tr != nil {
			n.store = newTracedStore(fs, rc.tr)
			cfg.Store = n.store
		}
	}
	n.srv = service.New(cfg)
	n.ts = httptest.NewServer(n.srv.Handler())
	n.base = &http.Transport{MaxIdleConnsPerHost: 4}
	var rt http.RoundTripper = n.base
	if rc.tr != nil {
		rt = &tracingTransport{next: rt, t: rc.tr}
	}
	n.http = &http.Client{Transport: rt}
	return n, nil
}

// client returns an SDK client for the node that shares its transport.
func (n *node) client(opts ...client.Option) (*client.Client, error) {
	return client.New(n.ts.URL, append([]client.Option{client.WithHTTPClient(n.http)}, opts...)...)
}

// close stops the node: listener, workers, store, scratch directory.
func (n *node) close() {
	n.ts.Close()
	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	n.base.CloseIdleConnections()
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// totalEvals reads the node's lifetime count of evaluations performed.
func (n *node) totalEvals() (int64, error) {
	c, err := n.client()
	if err != nil {
		return 0, err
	}
	h, err := c.Health(bg)
	return h.TotalEvals, err
}

// jobs lists the statuses of the node's most recent jobs, through the
// untraced transport so the listing leaves no client spans.
func (n *node) jobs() ([]service.JobStatus, error) {
	resp, err := (&http.Client{Transport: n.base}).Get(fmt.Sprintf("%s/v1/jobs?limit=%d", n.ts.URL, serverMaxJobs))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []service.JobStatus
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// serverMaxJobs is the service's default job registry size
// (service.Config.MaxJobs): a server lists at most its last this many
// jobs and forgets older finished ones.
const serverMaxJobs = 1024

// jobPollEvery is how often a traced run lists its nodes' jobs. A node
// finishes a few hundred jobs a second at most, so a listing every
// second sees every job before the registry forgets it.
const jobPollEvery = time.Second

// jobTimes collects, during a traced run, the queue wait
// (Started−Submitted) and run time (Finished−Started) of every job its
// nodes finish live, from the JobStatus timestamps. A run finishes more
// jobs than a server's registry keeps, so one listing at the end would
// see only the last serverMaxJobs of them; the collector lists every
// node's jobs each jobPollEvery instead and books each job once.
type jobTimes struct {
	nodes []*node
	from  time.Time // jobs submitted earlier are not counted

	seen      map[string]bool // node URL + job ID
	lastID    map[*node]int   // highest job number listed per node
	wait, run []float64
	err       error
	stop      chan struct{}
	done      chan struct{}
}

// collectJobs starts listing the nodes' jobs every jobPollEvery; it
// counts jobs submitted at or after from.
func collectJobs(nodes []*node, from time.Time) *jobTimes {
	jt := &jobTimes{nodes: nodes, from: from, seen: map[string]bool{}, lastID: map[*node]int{},
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(jt.done)
		tick := time.NewTicker(jobPollEvery)
		defer tick.Stop()
		for jt.poll() == nil {
			select {
			case <-jt.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return jt
}

// finish stops the collector, lists the nodes' jobs a last time and
// returns the first error a listing met.
func (jt *jobTimes) finish() error {
	close(jt.stop)
	<-jt.done
	if jt.err == nil {
		jt.poll()
	}
	return jt.err
}

// poll lists every node's jobs once and books the finished, uncached
// jobs not seen before. It fails when a full listing starts past the
// last job number the previous one reached, since jobs in the gap were
// forgotten unseen.
func (jt *jobTimes) poll() error {
	for _, n := range jt.nodes {
		jobs, err := n.jobs()
		if err != nil {
			jt.err = err
			return err
		}
		lowest, highest := 0, jt.lastID[n]
		for _, j := range jobs {
			var num int
			if _, err := fmt.Sscanf(j.ID, "job-%d", &num); err != nil {
				jt.err = fmt.Errorf("job ID %q: %w", j.ID, err)
				return jt.err
			}
			if lowest == 0 || num < lowest {
				lowest = num
			}
			highest = max(highest, num)
			key := n.ts.URL + "/" + j.ID
			if j.Cached || j.State != service.StateDone || jt.seen[key] {
				continue
			}
			jt.seen[key] = true
			sub, e1 := time.Parse(time.RFC3339Nano, j.Submitted)
			st, e2 := time.Parse(time.RFC3339Nano, j.Started)
			fin, e3 := time.Parse(time.RFC3339Nano, j.Finished)
			if e1 != nil || e2 != nil || e3 != nil {
				jt.err = fmt.Errorf("job %s: bad timestamps %q %q %q", j.ID, j.Submitted, j.Started, j.Finished)
				return jt.err
			}
			if sub.Before(jt.from) {
				continue
			}
			jt.wait = append(jt.wait, st.Sub(sub).Seconds())
			jt.run = append(jt.run, fin.Sub(st).Seconds())
		}
		if len(jobs) == serverMaxJobs && lowest > jt.lastID[n]+1 {
			jt.err = fmt.Errorf("%s: jobs %d to %d were forgotten before they were listed", n.ts.URL, jt.lastID[n]+1, lowest-1)
			return jt.err
		}
		jt.lastID[n] = highest
	}
	return nil
}

// warmSpecs are the set-up jobs: one small job per paper application.
// Their budget is outside the stream's range, so no stream spec matches
// them in the cache.
func warmSpecs() []scenario.Spec {
	var out []scenario.Spec
	for _, a := range paperApps {
		out = append(out, scenario.Spec{App: config.AppSpec{Builtin: a}, Budget: 50, Seed: 1})
	}
	return out
}

// serveMixed runs two closed-loop SDK clients against one in-process
// phonocmap-serve (2 workers, file store, default 256-entry LRU). Each
// client walks its own generated stream of fresh specs, recent repeats,
// old repeats and twin submissions.
func serveMixed(rc *runCtx) error {
	// The clients, the HTTP server and the workers all run on one CPU.
	// Every job hands off between goroutines several times; spread over
	// two CPUs of a shared virtual machine, those hand-offs wait on
	// cross-CPU wake-ups whose cost swings with the host's load, and
	// runs of the same code spread by a quarter. On one CPU they spread
	// by a few percent. Queueing, twins and the caches behave the same.
	procs := runtime.GOMAXPROCS(serveProcs)
	boots := 0
	n, err := timeSetup(rc, func() (*node, error) {
		boots++
		n, err := bootNode(rc, service.Config{Workers: 2}, filepath.Join(rc.tmp, fmt.Sprintf("store-%d", boots)))
		if err != nil {
			return nil, err
		}
		c, err := n.client()
		if err != nil {
			return nil, err
		}
		for _, spec := range warmSpecs() {
			if _, err := c.RunScenario(bg, spec); err != nil {
				return nil, err
			}
		}
		return n, nil
	}, (*node).close)
	if err != nil {
		return err
	}
	defer n.close()

	var (
		clients [2]*serveClient
		twinMu  sync.Mutex
		twins   = map[int]chan struct{}{}
		exited  = [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		wg      sync.WaitGroup
	)
	// arrive blocks until both clients reach twin index i. It reports
	// false when the other client finished its loop instead.
	arrive := func(c, i int) bool {
		twinMu.Lock()
		ch, ok := twins[i]
		if ok {
			close(ch)
		} else {
			ch = make(chan struct{})
			twins[i] = ch
		}
		twinMu.Unlock()
		select {
		case <-ch:
			return true
		case <-exited[1-c]:
			return false
		}
	}
	for c := range clients {
		if clients[c], err = newServeClient(n, rc.seed, c); err != nil {
			return err
		}
	}
	evalsStart, err := n.totalEvals()
	if err != nil {
		return err
	}
	var evals0 int64
	var evalsErr error
	start := time.Now()
	var jt *jobTimes
	if rc.tr != nil {
		jt = collectJobs([]*node{n}, start.Add(serveWarmup))
	}
	for c, sc := range clients {
		wg.Add(1)
		go func(c int, sc *serveClient) {
			defer wg.Done()
			defer close(exited[c])
			warm := true
			for i := 0; i < serveDigestOps || time.Since(start) < serveWarmup+rc.window; i++ {
				if c == 0 && warm && time.Since(start) >= serveWarmup {
					// The measured window opens: note the evaluations
					// performed so far.
					warm = false
					evals0, evalsErr = n.totalEvals()
				}
				o := sc.stream.op(i)
				if o.Kind == kindTwin && !arrive(c, i) {
					return
				}
				ctx, sp := rc.tr.begin(bg, "client.run_scenario")
				t0 := time.Now()
				res, err := sc.cl.RunScenario(ctx, o.Spec)
				lat := sinceS(t0)
				sp.end()
				sc.record(i, o, res, err, lat, sinceS(start))
			}
		}(c, sc)
	}
	wg.Wait()
	wall := sinceS(start) - serveWarmup.Seconds()
	rc.windowEnded()
	// The checks and probes after the window are not timed as
	// operations; they get every CPU back.
	runtime.GOMAXPROCS(procs)
	if evalsErr != nil {
		return evalsErr
	}
	if jt != nil {
		if err := jt.finish(); err != nil {
			return err
		}
	}
	evals1, err := n.totalEvals()
	if err != nil {
		return err
	}

	// Output checks. Every fresh spec's result must score exactly under
	// a fresh compile; every repeat must equal the result of the fresh
	// operation it repeats, and the two halves of a twin each other, by
	// the SHA-256 of their canonical bytes.
	var specs []scenario.Spec
	var results []runner.ScenarioResult
	needed := 0
	var lats []float64
	kinds := map[string]int{}
	for c, sc := range clients {
		for _, r := range sc.recs {
			i := int(r.i)
			o := sc.stream.op(i)
			rc.attempted++
			if r.end >= serveWarmup.Seconds() {
				lats = append(lats, r.lat)
				kinds[o.Kind]++
			}
			if !rc.check(r.ok, "serve_mixed client %d op %d (%s): %v", c, i, o.Kind, sc.errs[i]) {
				rc.failed++
				continue
			}
			ok := true
			switch {
			case o.Of >= 0:
				first := sc.recs[o.Of]
				ok = rc.check(first.ok && r.sum == first.sum, "serve_mixed client %d op %d (%s): result differs from op %d's", c, i, o.Kind, o.Of)
			case o.Kind == kindTwin && c == 1:
				ok = rc.check(i < len(clients[0].recs) && clients[0].recs[i].sum == r.sum, "serve_mixed op %d: the two halves of a twin differ", i)
			default:
				specs = append(specs, o.Spec)
				results = append(results, sc.result(r))
				needed += int(r.evals)
			}
			if !ok {
				rc.failed++
			}
		}
	}
	for _, ok := range checkScores(rc, specs, results) {
		if !ok {
			rc.failed++
		}
	}
	for c, sc := range clients {
		for i := 0; i < serveDigestOps; i++ {
			if !rc.check(i < len(sc.recs) && sc.recs[i].ok, "serve_mixed client %d op %d has no result", c, i) {
				break
			}
			rc.digest.add(sc.recs[i].sum[:])
		}
	}

	jobs := len(lats)
	rc.e2e("ops_per_s", float64(jobs)/wall, jobs)
	rc.e2e("latency_s_p50", median(lats), jobs)
	rc.tail(lats)
	rc.e2e("evals_per_s", float64(evals1-evals0)/wall, jobs)
	rc.note("window %.2fs after a %s warm-up: %d jobs; %d jobs and %d distinct specs checked", wall, serveWarmup, jobs, rc.attempted, len(specs))
	share := func(kind string) float64 { return 100 * ratio(float64(kinds[kind]), float64(jobs)) }
	rc.note("mix in the window: %.1f%% fresh, %.1f%% recent repeats, %.1f%% old repeats, %.1f%% twins",
		share(kindFresh), share(kindRecent), share(kindOld), share(kindTwin))

	if rc.tr == nil || rc.failed > 0 {
		return nil
	}
	rc.layer("service.duplicate_eval_ratio", ratio(float64(evals1-evalsStart), float64(needed))-1)
	serviceLayers(rc, []*node{n}, jt)
	// The probes recompile each spec they cover, so they take the fresh
	// specs among each client's first serveProbeOps operations only.
	var probeSpecs []scenario.Spec
	var probeResults []runner.ScenarioResult
	for _, sc := range clients {
		for i := 0; i < serveProbeOps; i++ {
			if res, ok := sc.full[i]; ok {
				probeSpecs, probeResults = append(probeSpecs, sc.stream.op(i).Spec), append(probeResults, res)
			}
		}
	}
	return traceLayers(rc, probeSpecs, probeResults, mean(lats), jobs, wall)
}

// serveProbeOps bounds which operations keep their whole result for
// the traced run's layer probes.
const serveProbeOps = 40

// serveRecCap is the number of job records each client allocates
// before the window: room for several times today's throughput.
const serveRecCap = 1 << 15

// serveRec is what one job leaves for the checks after the window. It
// holds no pointers, and each client allocates its records before the
// window, so the benchmark's own memory stays flat however many jobs a
// run completes. The in-process server's heap, and so its garbage
// collector's pacing, then sees the same load from start to end.
type serveRec struct {
	i             int32
	ok            bool // the call returned a result
	lat, end      float64
	sum           [sha256.Size]byte // of the canonical result
	score         core.Score
	evals         int32
	mapAt, mapLen int32 // the mapping's tiles in the client's arena
}

// serveClient is one closed-loop client with its stream and records.
type serveClient struct {
	cl     *client.Client
	stream *serveStream
	recs   []serveRec
	tiles  []int32 // mapping arena
	errs   map[int]error
	full   map[int]runner.ScenarioResult // fresh results kept for the probes
}

func newServeClient(n *node, seed int64, c int) (*serveClient, error) {
	cl, err := n.client()
	if err != nil {
		return nil, err
	}
	return &serveClient{
		cl:     cl,
		stream: newServeStream(seed, c),
		recs:   make([]serveRec, 0, serveRecCap),
		tiles:  make([]int32, 0, 16*serveRecCap),
		errs:   map[int]error{},
		full:   map[int]runner.ScenarioResult{},
	}, nil
}

// record books the outcome of the client's i-th operation.
func (sc *serveClient) record(i int, o serveOp, res runner.ScenarioResult, err error, lat, end float64) {
	r := serveRec{i: int32(i), lat: lat, end: end}
	if err != nil {
		sc.errs[i] = err
	} else {
		r.ok = true
		r.sum = sha256.Sum256(canonicalJSON(res))
		r.score, r.evals = res.Score, int32(res.Evals)
		r.mapAt, r.mapLen = int32(len(sc.tiles)), int32(len(res.Mapping))
		for _, t := range res.Mapping {
			sc.tiles = append(sc.tiles, int32(t))
		}
		if o.Of < 0 && i < serveProbeOps {
			sc.full[i] = res
		}
	}
	sc.recs = append(sc.recs, r)
}

// result rebuilds the mapping and score a record holds.
func (sc *serveClient) result(r serveRec) runner.ScenarioResult {
	m := make(core.Mapping, r.mapLen)
	for k := range m {
		m[k] = topo.TileID(sc.tiles[int(r.mapAt)+k])
	}
	return runner.ScenarioResult{Mapping: m, Score: r.score, Evals: int(r.evals)}
}

// serviceLayers records the client, service and store metrics of a
// traced run from its route spans, the job timestamps jt collected and
// the store decorators' counts.
func serviceLayers(rc *runCtx, nodes []*node, jt *jobTimes) {
	spans := rc.tr.snapshot()
	rc.layer("client.submit_s_p50", median(named(spans, "client.submit")))
	rc.layer("client.await_s_p50", median(append(named(spans, "client.await"), named(spans, "client.poll")...)))
	rc.layer("client.fetch_s_p50", median(named(spans, "client.fetch")))
	self := selfTimes(spans)
	var clientSelf []float64
	submits, hits := 0, 0
	for _, s := range spans {
		switch s.Name {
		case "client.run_scenario":
			clientSelf = append(clientSelf, float64(self[s.ID])/1e9)
		case "client.submit":
			submits++
			if s.Status == http.StatusOK {
				hits++ // a 200 answers from the cache; a miss is 202 Accepted
			}
		}
	}
	if len(clientSelf) > 0 {
		rc.layer("client.self_s_p50", median(clientSelf))
	}
	rc.layer("service.cache_hit_ratio", ratio(float64(hits), float64(submits)))

	rc.layer("service.queue_wait_s_p50", median(jt.wait))
	rc.layer("service.queue_wait_s_p99", quantile(jt.wait, 0.99))
	rc.layer("service.run_s_p50", median(jt.run))
	rc.note("queue wait and run time: %d live jobs", len(jt.wait))

	var gets, storeHits int64
	for _, n := range nodes {
		if n.store != nil {
			g, h := n.store.counts()
			gets, storeHits = gets+g, storeHits+h
		}
	}
	if gets > 0 {
		rc.layer("store.get_s_p50", median(named(spans, "store.get")))
		rc.layer("store.put_s_p50", median(named(spans, "store.put")))
		rc.layer("store.hit_ratio", float64(storeHits)/float64(gets))
	}
}
