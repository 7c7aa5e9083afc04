package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/rcj"
)

// inprocCluster is the sharded deployment in one process: each worker a
// daemonStack behind an httptest server, the router's handler in front.
type inprocCluster struct {
	workers []*daemonStack
	servers []*httptest.Server
	tt      *tracingTransport
	handler http.Handler
}

// newCluster assembles the cluster with the binaries' defaults, worker
// handlers and the router's client wrapped for tracing.
func (s *sharded) newCluster(t *tracer) (*inprocCluster, error) {
	c := &inprocCluster{}
	var workers []router.Worker
	for _, ids := range s.owned {
		d := newDaemonStack()
		c.workers = append(c.workers, d)
		if _, err := d.srv.LoadManifestShards(s.manifest, ids, ""); err != nil {
			c.close()
			return nil, err
		}
		ts := httptest.NewServer(tracedHandler(t, d.srv.Handler()))
		c.servers = append(c.servers, ts)
		workers = append(workers, router.Worker{URL: ts.URL, Shards: ids})
	}
	c.tt = &tracingTransport{base: http.DefaultTransport, t: t}
	// Fanout and Retries are cmd/rcjrouter's flag defaults.
	rt, err := router.New(router.Config{Manifest: s.man, Workers: workers, Fanout: 4, Retries: 1,
		Client: &http.Client{Transport: c.tt}})
	if err != nil {
		c.close()
		return nil, err
	}
	c.handler = rt.Handler()
	return c, nil
}

func (c *inprocCluster) close() {
	for _, ts := range c.servers {
		ts.Close()
	}
	for _, d := range c.workers {
		d.close()
	}
}

// routerCounters reads the in-process router's own /metrics.
func (c *inprocCluster) routerCounters() (routerMetrics, error) {
	rec := httptest.NewRecorder()
	c.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var rm routerMetrics
	err := json.NewDecoder(rec.Body).Decode(&rm)
	return rm, err
}

// layers is the traced run of serve_sharded. A fixed list of requests,
// drawn by popularity, is replayed sequentially with parallelism forced to
// 1, once untimed (so every cacheable request is then a result-cache hit
// everywhere and caches no longer differ between stacks) and then timed, at
// two depths that take turns on each request:
//
//	U  real client -> real rcjrouter -> real rcjd       (the reference time)
//	H  in-process router handler called directly, with spans: router.handle
//	   -> router.sub (timing RoundTripper) -> server.handle (worker handler)
//
// U - H is loopback: sockets and process boundaries, which no in-process
// assembly can see. The worker sub-queries H captured that were not cache
// hits are then
// replayed below the HTTP layer, again taking turns: Scheduler.Run,
// Engine.Run, core.JoinContext bare and core.JoinContext over the timing
// wrappers. Differences between neighbouring depths are the layers' self
// times; under the router's parallel fan-out a worker-side sum is scaled by
// the share of it that blocked the request (union of sub-query spans over
// their sum).
func (s *sharded) layers(ctx context.Context, loaded phase, m map[string]float64) error {
	nOps := 120
	if s.sz.reduced {
		nOps = 12
	}
	rng := rand.New(rand.NewSource(s.cfg.seed*211 + 9))
	ops := make([]op, nOps)
	for i := range ops {
		ops[i] = s.draw(rng)
	}
	n := float64(nOps)

	tr := newTracer()
	tr.suspend(true)
	d2, err := s.newCluster(tr)
	if err != nil {
		return err
	}
	defer d2.close()

	// Unforced replay on the traced cluster: what the workers' planners
	// decide when left alone.
	var planned, parallel float64
	for _, o := range ops {
		if _, err := serveInProcess(d2.handler, "/join", bodyFor(o, 0)); err != nil {
			return err
		}
	}
	for _, call := range d2.tt.take() {
		var r reply
		if readStream(&call.resp, tr.epoch, &r) == nil && !r.cached {
			planned++
			if r.par > 1 {
				parallel++
			}
		}
	}

	check := func(o op, r reply, err error) (float64, error) {
		if err == nil && r.d != s.ref.expect(o) {
			err = fmt.Errorf("wrong answer")
		}
		if err != nil {
			return 0, fmt.Errorf("traced %s request %d: %w", o.class, o.key, err)
		}
		return r.ms, nil
	}
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	depths := []func(int, op) (float64, error){
		func(_ int, o op) (float64, error) {
			r, err := doJoin(ctx, hc, s.router.url()+"/join", bodyFor(o, 1))
			return check(o, r, err)
		},
		func(i int, o op) (float64, error) {
			tr.setOp(i + 1)
			root := tr.begin(spanRouter)
			r, err := serveInProcess(d2.handler, "/join", bodyFor(o, 1))
			tr.end(root)
			return check(o, r, err)
		},
	}
	var (
		rm0    routerMetrics
		rm0Err error
	)
	times, err := interleavedPasses(ops, depths, func() {
		d2.tt.take()
		tr.suspend(false)
		rm0, rm0Err = d2.routerCounters()
	})
	if err != nil {
		return err
	}
	if rm0Err != nil {
		return rm0Err
	}
	rm1, err := d2.routerCounters()
	if err != nil {
		return err
	}
	u, h := times[0], times[1]
	led := tr.account().perPass(tracedReps)
	calls := d2.tt.take()
	if s.cfg.traceOut != "" {
		if err := tr.write(s.cfg.traceOut); err != nil {
			return err
		}
	}

	// The last timed replay's sub-queries, parsed: which missed the result
	// cache (and so ran the join), and how far off the planner's estimate
	// was.
	subs, est, err := parseSubs(calls[len(calls)-len(calls)/tracedReps:])
	if err != nil {
		return err
	}
	low, wled, err := s.replayBelowHTTP(ctx, subs, m)
	if err != nil {
		return err
	}
	counts, err := s.exactCounts(ctx, ops)
	if err != nil {
		return err
	}

	// Blocking share of worker-side time under the parallel fan-out.
	subUnion := led.total[spanRouter] - led.self[spanRouter]
	block := ratio(subUnion, led.total[spanSub])
	if block == 0 {
		block = 1
	}
	q, en, p, w := sum(low[0]), sum(low[1]), sum(low[2]), sum(low[3])

	m["router.self_ms_per_op"] = led.self[spanRouter] / n
	m["router.subqueries_per_op"] = float64(led.count[spanSub]) / n
	contacted := float64(rm1.ShardsContacted - rm0.ShardsContacted)
	pruned := float64(rm1.ShardsPruned - rm0.ShardsPruned)
	m["router.shards_pruned_share"] = ratio(pruned, pruned+contacted)
	m["router.slowest_sub_share"] = slowestSubShare(tr)
	m["router.dedup_dropped_per_op"] = float64(rm1.DedupDropped-rm0.DedupDropped) / tracedReps / n
	m["router.bound_tightenings_per_op"] = float64(rm1.BoundTightenings-rm0.BoundTightenings) / tracedReps / n
	m["router.retries_per_op"] = float64(rm1.Retries-rm0.Retries) / tracedReps / n
	m["shard.build_s"] = s.shardBuildS
	m["shard.skew"] = s.skew()

	m["loopback.ms_per_op"] = (pairedDiff(u, h) + block*led.self[spanSub]) / n
	m["server.self_ms_per_op"] = block * (led.total[spanServer] - q) / n
	m["sched.self_us_per_op"] = block * pairedDiff(low[0], low[1]) * 1e3 / n
	m["rcj.self_ms_per_op"] = block * pairedDiff(low[1], low[2]) / n
	m["core.self_ms_per_op"] = block * wled.self[spanCore] / n
	m["rtree.read_node_self_us"] = ratio(wled.self[spanReadNode]*1e3, float64(wled.count[spanReadNode]))
	m["rtree.node_accesses_per_op"] = float64(counts.NodeAccesses) / n
	m["core.candidates_per_op"] = float64(counts.Candidates) / n
	m["core.results_per_op"] = float64(counts.Results) / n
	m["core.candidate_precision"] = ratio(float64(counts.Results), float64(counts.Candidates))
	m["core.nodes_pruned_per_op"] = float64(counts.NodesPruned) / n
	m["core.bound_killed_per_op"] = float64(counts.BoundKilledCandidates) / n
	m["buffer.page_faults_per_op"] = float64(counts.PageFaults) / n
	m["buffer.hit_ratio"] = 1 - ratio(float64(counts.PageFaults), float64(counts.NodeAccesses))
	m["storage.read_ms_per_op"] = block * wled.total[spanReadPage] / n
	m["storage.pages_read_per_op"] = float64(wled.count[spanReadPage]) / n
	m["storage.read_page_us"] = ratio(wled.total[spanReadPage]*1e3, float64(wled.count[spanReadPage]))

	m["plan.parallel_share"] = ratio(parallel, planned)
	m["plan.est_over_actual_p50"] = median(est)

	var outBytes float64
	for _, sm := range loaded.samples {
		outBytes += float64(sm.bytes)
	}
	m["server.bytes_out_per_op"] = ratio(outBytes, float64(len(loaded.samples)))
	s.counters.fillOutside(m, len(loaded.samples))

	// Transport is measured as a difference, so the only part of U the
	// ledger can fail to explain is what the wrappers themselves cost.
	m["trace.residual_share"] = ratio(-block*(w-p), sum(u))
	m["trace.overhead_share"] = ratio(w, p) - 1
	fmt.Fprintf(logw, "perf: traced pass of %d requests: real %.1f ms, handler in-process %.1f; %d sub-queries ran below HTTP: sched %.1f, engine %.1f, core %.1f, core traced %.1f\n",
		nOps, sum(u), sum(h), len(subs), q, en, p, w)

	for _, sh := range s.man.Shards {
		if !sh.Empty() {
			return microDecode(shard.ResolveSource(s.manifest, sh.P, ""), m)
		}
	}
	return nil
}

// slowestSubShare is the share of request time its slowest sub-query
// covers, over all traced requests with at least one: the slowest shard
// sets the time.
func slowestSubShare(t *tracer) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	slowest := map[int32]int64{}
	var total int64
	for _, s := range t.spans {
		switch s.Kind {
		case spanSub:
			slowest[s.Parent] = max(slowest[s.Parent], s.dur())
		}
	}
	var worst int64
	for _, s := range t.spans {
		if s.Kind == spanRouter {
			if d, ok := slowest[s.ID]; ok {
				worst += d
				total += s.dur()
			}
		}
	}
	return ratio(float64(worst), float64(total))
}

// skew is the largest shard's point count over the mean.
func (s *sharded) skew() float64 {
	var total, largest, shards float64
	for _, sh := range s.man.Shards {
		if sh.Empty() {
			continue
		}
		c := float64(sh.PCount + sh.QCount)
		total += c
		largest = max(largest, c)
		shards++
	}
	return ratio(largest*shards, total)
}

// parseSubs turns captured worker sub-queries into operations, leaving out
// those the worker answered from its result cache (they ran no join), and
// returns the planner's estimate over the measured node accesses of each.
func parseSubs(calls []*subCall) (subs []op, est []float64, err error) {
	for _, call := range calls {
		var r reply
		if err := readStream(&call.resp, time.Now(), &r); err != nil {
			return nil, nil, fmt.Errorf("captured sub-query: %w", err)
		}
		if r.cached {
			continue
		}
		var b joinBody
		if err := json.Unmarshal(call.body, &b); err != nil {
			return nil, nil, err
		}
		subs = append(subs, op{p: b.P, q: b.Q, qry: queryOf(b)})
		if r.accesses > 0 {
			est = append(est, float64(r.est)/float64(r.accesses))
		}
	}
	return subs, est, nil
}

// shardFiles lists the populated shards' index files by the names workers
// serve them under.
func (s *sharded) shardFiles() (files map[string]string, names []string) {
	files = map[string]string{}
	for _, sh := range s.man.Shards {
		if sh.Empty() {
			continue
		}
		for _, side := range []struct{ name, src string }{{"p", sh.P}, {"q", sh.Q}} {
			name := shard.IndexName(sh.ID, side.name)
			files[name] = shard.ResolveSource(s.manifest, side.src, "")
			names = append(names, name)
		}
	}
	return files, names
}

// shardEngine opens every shard in one engine with the daemon's defaults:
// it stands in for all workers when sub-queries are replayed below HTTP.
func (s *sharded) shardEngine() (*rcj.Engine, map[string]*rcj.Index, error) {
	ec, _, _ := daemonDefaults()
	ec.BufferPages *= len(s.owned)
	eng := rcj.NewEngine(ec)
	ixs := map[string]*rcj.Index{}
	files, names := s.shardFiles()
	for _, name := range names {
		ix, err := eng.OpenIndex(files[name], rcj.IndexConfig{Backend: rcj.BackendMem})
		if err != nil {
			closeAll(ixs)
			return nil, nil, err
		}
		ixs[name] = ix
	}
	return eng, ixs, nil
}

// exactCounts makes the counted pass of serve_sharded: a cluster of its
// own answers the requests twice, and the sub-queries it sends the second
// time (when every cacheable one is a cache hit) are run on a fresh engine,
// twice, the second time counted. A top-k request that reaches more than one
// shard is left out: the bound each shard is sent depends on which of the
// others answered first, and the work with it. Everything else is the same
// from run to run, so the counts repeat exactly.
func (s *sharded) exactCounts(ctx context.Context, ops []op) (rcj.Stats, error) {
	tr := newTracer()
	tr.suspend(true)
	c, err := s.newCluster(tr)
	if err != nil {
		return rcj.Stats{}, err
	}
	defer c.close()
	var calls []*subCall
	for pass := 0; pass < 2; pass++ {
		calls = calls[:0]
		for _, o := range ops {
			if _, err := serveInProcess(c.handler, "/join", bodyFor(o, 1)); err != nil {
				return rcj.Stats{}, err
			}
			if sent := c.tt.take(); o.qry.TopK == 0 || len(sent) == 1 {
				calls = append(calls, sent...)
			}
		}
	}
	subs, _, err := parseSubs(calls)
	if err != nil {
		return rcj.Stats{}, err
	}
	eng, ixs, err := s.shardEngine()
	if err != nil {
		return rcj.Stats{}, err
	}
	defer closeAll(ixs)
	runs := make([]engineRun, len(subs))
	for pass := 0; pass < 2; pass++ {
		for i, o := range subs {
			if runs[i], err = drainEngine(ctx, eng, ixs, o, 1); err != nil {
				return rcj.Stats{}, err
			}
		}
	}
	return sumStats(runs), nil
}

// replayBelowHTTP runs the captured worker sub-queries at four depths that
// take turns on each: Scheduler.Run, Engine.Run, core.JoinContext bare,
// core.JoinContext traced. It returns the per-depth times and the traced
// core's ledger (per pass), and prices the planner on the same sub-queries
// into m.
func (s *sharded) replayBelowHTTP(ctx context.Context, subs []op, m map[string]float64) ([][]float64, ledger, error) {
	eng, ixs, err := s.shardEngine()
	if err != nil {
		return nil, ledger{}, err
	}
	defer closeAll(ixs)
	ec, sc, _ := daemonDefaults()
	ec.BufferPages *= len(s.owned)
	sch := sched.New(eng, sc)
	files, names := s.shardFiles()
	m["plan.resolve_us"] = microResolve(subs, ixs)
	tr := newTracer()
	tr.suspend(true)
	wstack, err := openCoreStack(files, [][]string{names}, storage.BackendMem, ec.BufferPages, 0, tr)
	if err != nil {
		return nil, ledger{}, err
	}
	defer wstack.close()
	pstack, err := openCoreStack(files, [][]string{names}, storage.BackendMem, ec.BufferPages, 0, nil)
	if err != nil {
		return nil, ledger{}, err
	}
	defer pstack.close()

	runs := make([]engineRun, len(subs))
	depths := []func(int, op) (float64, error){
		func(_ int, o op) (float64, error) {
			ms, _, err := runSched(ctx, sch, ixs, o)
			return ms, err
		},
		func(i int, o op) (float64, error) {
			r, err := drainEngine(ctx, eng, ixs, o, 1)
			runs[i] = r
			return r.ms, err
		},
		func(i int, o op) (float64, error) {
			ms, d, _, err := pstack.run(ctx, o, runs[i].dec, false)
			if err == nil && d != runs[i].d {
				err = fmt.Errorf("core-level replay of a sub-query disagrees with the engine")
			}
			return ms, err
		},
		func(i int, o op) (float64, error) {
			tr.setOp(i + 1)
			ms, _, _, err := wstack.run(ctx, o, runs[i].dec, false)
			return ms, err
		},
	}
	if len(subs) == 0 {
		return make([][]float64, len(depths)), tr.account(), nil
	}
	times, err := interleavedPasses(subs, depths, func() { tr.suspend(false) })
	if err != nil {
		return nil, ledger{}, err
	}
	return times, tr.account().perPass(tracedReps), nil
}
