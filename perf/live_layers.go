package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sched"
	"repro/rcj"
)

// liveDepth is one stack of the serve_live traced run: a fresh copy of the
// base, its own generator (same seed, so the same operations), and a way
// to run one operation.
type liveDepth struct {
	gen  *liveClient
	run  func(o op) (float64, error)
	stop func()
}

// freshClient is a generator owning every id: the traced run has one
// sequential client.
func (l *liveShape) freshClient() *liveClient {
	c := &liveClient{rng: rand.New(rand.NewSource(l.cfg.seed*59 + 11)), stride: 1}
	for id := 0; id < l.baseN; id++ {
		c.old = append(c.old, int64(id))
	}
	return c
}

// copyBase gives a stack its own copy of the base file: a live index seals
// its generations next to the file it was opened from.
func (l *liveShape) copyBase(name string) (string, error) {
	dir := filepath.Join(l.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(dir, "lp.rcjx")
	in, err := os.Open(filepath.Join(l.dir, "lp.rcjx"))
	if err != nil {
		return "", err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return "", err
	}
	return dst, out.Close()
}

// layers is the traced run of serve_live: one sequential client's schedule
// (query, query, mutation batch, ...) replayed at five depths, each on a
// fresh copy of the base so all see the same state evolve, taking turns on
// each operation:
//
//	U   real client -> a fresh real rcjd                (the reference time)
//	H   in-process handler called directly
//	Ht  the same under the span-recording middleware    (prices the wrapper)
//	S   Scheduler.Run drained / Index.ApplyBatch
//	E   Engine.Run drained / Index.ApplyBatch
//
// U - H is loopback: the socket and the process boundary.
// The merged base+delta view of a live index is not reachable from outside
// the rcj package, so the ledger stops at the engine: live.read_ms_per_op
// is everything below Engine.Run on a query.
func (l *liveShape) layers(ctx context.Context, loaded phase, m map[string]float64) error {
	nOps := 90
	if l.sz.reduced {
		nOps = 12
	}
	bin, err := l.cfg.env.daemons()
	if err != nil {
		return err
	}
	qPath := filepath.Join(l.dir, "q.rcjx")
	var depths []*liveDepth
	defer func() {
		for _, d := range depths {
			d.stop()
		}
	}()
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	overHTTP := func(base string) func(o op) (float64, error) {
		return func(o op) (float64, error) {
			if o.class == classWrite {
				return doMutate(ctx, hc, base+"/indexes/lp/points", mutationFor(o))
			}
			r, err := doJoin(ctx, hc, base+"/join", bodyFor(o, 1))
			return r.ms, err
		}
	}

	// U: a fresh real daemon.
	basePath, err := l.copyBase("tU")
	if err != nil {
		return err
	}
	real, err := startProc(ctx, "rcjd", filepath.Join(bin, "rcjd"), "-index", "q="+qPath, "-live-index", "lp="+basePath)
	if err != nil {
		return err
	}
	depths = append(depths, &liveDepth{gen: l.freshClient(), run: overHTTP(real.url()), stop: real.stop})

	// H, Ht: the daemon in-process, bare and under the tracing middleware.
	tr := newTracer()
	tr.suspend(true)
	for _, traced := range []bool{false, true} {
		basePath, err := l.copyBase(fmt.Sprintf("tH%v", traced))
		if err != nil {
			return err
		}
		d := newDaemonStack()
		depth := &liveDepth{gen: l.freshClient(), stop: d.close}
		depths = append(depths, depth)
		if err := d.srv.LoadIndex("q", qPath); err != nil {
			return err
		}
		if err := d.srv.LoadMutableIndex("lp", basePath, 0, 0); err != nil {
			return err
		}
		h := d.srv.Handler()
		if traced {
			h = tracedHandler(tr, h)
		}
		depth.run = func(o op) (float64, error) {
			if o.class == classWrite {
				return mutateInProcess(h, "/indexes/lp/points", mutationFor(o))
			}
			r, err := serveInProcess(h, "/join", bodyFor(o, 1))
			return r.ms, err
		}
	}

	// S, E: scheduler and engine, each over its own live index.
	ec, sc, _ := daemonDefaults()
	var applyMS, applyPoints float64
	for _, throughSched := range []bool{true, false} {
		basePath, err := l.copyBase(fmt.Sprintf("tE%v", throughSched))
		if err != nil {
			return err
		}
		eng := rcj.NewEngine(ec)
		sch := sched.New(eng, sc)
		q, err := eng.OpenIndex(qPath, rcj.IndexConfig{Backend: rcj.BackendMem})
		if err != nil {
			return err
		}
		lp, err := eng.OpenMutableIndex(basePath, rcj.MutableConfig{Index: rcj.IndexConfig{Backend: rcj.BackendMem}})
		if err != nil {
			q.Close()
			return err
		}
		ixs := map[string]*rcj.Index{"q": q, "lp": lp}
		depths = append(depths, &liveDepth{gen: l.freshClient(), stop: func() { closeAll(ixs) }, run: func(o op) (float64, error) {
			if o.class == classWrite {
				t0 := time.Now()
				_, err := lp.ApplyBatch(o.ins, o.del)
				ms := time.Since(t0).Seconds() * 1e3
				if !throughSched {
					applyMS += ms
					applyPoints += float64(len(o.ins) + len(o.del))
				}
				return ms, err
			}
			if throughSched {
				ms, _, err := runSched(ctx, sch, ixs, o)
				return ms, err
			}
			r, err := drainEngine(ctx, eng, ixs, o, 1)
			return r.ms, err
		}})
	}

	// Every depth generates its own (identical) operation stream; they take
	// turns on each operation. The first third is untimed.
	warm := nOps / 3
	times := make([][]float64, len(depths))
	var classOf []string
	for i := 0; i < nOps; i++ {
		if i == warm {
			tr.suspend(false)
			applyMS, applyPoints = 0, 0
		}
		for d, depth := range depths {
			o := l.nextOp(depth.gen)
			tr.setOp(i + 1)
			ms, err := depth.run(o)
			if err != nil {
				return fmt.Errorf("traced %s at depth %d: %w", o.class, d, err)
			}
			if i >= warm {
				times[d] = append(times[d], ms)
				if d == 0 {
					classOf = append(classOf, o.class)
				}
			}
		}
	}
	if l.cfg.traceOut != "" {
		if err := tr.write(l.cfg.traceOut); err != nil {
			return err
		}
	}
	n := float64(nOps - warm)
	u, h2, h2t, q, en := sum(times[0]), sum(times[1]), sum(times[2]), sum(times[3]), sum(times[4])
	var readMS float64
	for i, c := range classOf {
		if c != classWrite {
			readMS += times[4][i]
		}
	}
	m["loopback.ms_per_op"] = pairedDiff(times[0], times[1]) / n
	m["server.self_ms_per_op"] = pairedDiff(times[1], times[3]) / n
	m["sched.self_us_per_op"] = pairedDiff(times[3], times[4]) * 1e3 / n
	m["live.read_ms_per_op"] = readMS / n
	m["live.apply_us_per_point"] = ratio(applyMS*1e3, applyPoints)
	// Every row is a difference of neighbouring depths, so the rows add up
	// to U but for what the wrapper costs.
	m["trace.residual_share"] = ratio(-pairedDiff(times[2], times[1]), u)
	m["trace.overhead_share"] = ratio(pairedDiff(times[2], times[1]), h2)
	fmt.Fprintf(logw, "perf: traced pass of %d operations: real %.1f ms, handler in-process %.1f (traced %.1f), sched %.1f, engine %.1f\n",
		int(n), u, h2, h2t, q, en)

	var writes []float64
	var outBytes float64
	for _, s := range loaded.samples {
		if s.class == classWrite && !s.fail {
			writes = append(writes, s.ms)
		}
		outBytes += float64(s.bytes)
	}
	m["live.apply_p50_ms"] = percentile(writes, 0.50)
	m["live.apply_p95_ms"] = percentile(writes, 0.95)
	m["server.bytes_out_per_op"] = ratio(outBytes, float64(len(loaded.samples)))
	// Per run: the loaded phase of a traced invocation is shorter than a
	// run, so counts are scaled to the run's length.
	perRun := ratio(l.cfg.seconds, loaded.wall)
	lw := l.counters.workers[0]
	m["live.compactions_per_run"] = float64(lw.Live.Compactions) * perRun
	m["live.compact_s_total"] = lw.Live.CompactSeconds * perRun
	m["live.delta_points_max"] = float64(l.deltaMax)
	l.counters.fillOutside(m, len(loaded.samples))

	ratioQ, err := l.queryOverhead(ctx)
	if err != nil {
		return err
	}
	m["live.query_overhead_ratio"] = ratioQ
	m["plan.resolve_us"] = l.resolveCost(depths[4].gen)
	return microDecode(filepath.Join(l.dir, "lp.rcjx"), m)
}

// queryOverhead is the price of reading through a full delta: the same
// queries on a live index whose delta and tombstones are about to trigger
// compaction, over their time after a synchronous compaction has sealed
// the same points.
func (l *liveShape) queryOverhead(ctx context.Context) (float64, error) {
	basePath, err := l.copyBase("tQ")
	if err != nil {
		return 0, err
	}
	eng := rcj.NewEngine(rcj.EngineConfig{})
	q, err := eng.OpenIndex(filepath.Join(l.dir, "q.rcjx"), rcj.IndexConfig{})
	if err != nil {
		return 0, err
	}
	defer q.Close()
	lp, err := eng.OpenMutableIndex(basePath, rcj.MutableConfig{CompactEvery: -1})
	if err != nil {
		return 0, err
	}
	defer lp.Close()
	gen := l.freshClient()
	var queries []op
	for load := 0; load < 3800 && len(queries) < 400; {
		o := l.nextOp(gen)
		if o.class != classWrite {
			queries = append(queries, o)
			continue
		}
		if _, err := lp.ApplyBatch(o.ins, o.del); err != nil {
			return 0, err
		}
		load += len(o.ins)
	}
	queries = queries[:min(len(queries), 12)]
	ixs := map[string]*rcj.Index{"q": q, "lp": lp}
	pass := func() (float64, error) {
		var best float64
		for rep := 0; rep < 2; rep++ {
			var total float64
			for _, o := range queries {
				r, err := drainEngine(ctx, eng, ixs, o, 1)
				if err != nil {
					return 0, err
				}
				total += r.ms
			}
			if rep == 0 || total < best {
				best = total
			}
		}
		return best, nil
	}
	withDelta, err := pass()
	if err != nil {
		return 0, err
	}
	if err := lp.Compact(); err != nil {
		return 0, err
	}
	sealed, err := pass()
	if err != nil {
		return 0, err
	}
	return ratio(withDelta, sealed), nil
}

// resolveCost prices the planner on the live index's query shapes.
func (l *liveShape) resolveCost(gen *liveClient) float64 {
	eng := rcj.NewEngine(rcj.EngineConfig{})
	q, err := eng.BuildIndex(l.q, rcj.IndexConfig{})
	if err != nil {
		return 0
	}
	defer q.Close()
	lp, err := eng.NewMutableIndex(l.pool[:l.baseN], rcj.MutableConfig{CompactEvery: -1})
	if err != nil {
		return 0
	}
	defer lp.Close()
	var ops []op
	for len(ops) < 16 {
		if o := l.nextOp(gen); o.class != classWrite {
			ops = append(ops, o)
		}
	}
	return microResolve(ops, map[string]*rcj.Index{"q": q, "lp": lp})
}

// mutateInProcess posts one mutation batch to a handler directly.
func mutateInProcess(h http.Handler, path string, body []byte) (float64, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	ms := time.Since(t0).Seconds() * 1e3
	if rec.Code != http.StatusOK {
		return ms, &statusError{rec.Code, rec.Body.String()}
	}
	return ms, nil
}
