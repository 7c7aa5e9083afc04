package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/rcj"
)

// liveShape is the serve_live workload: client -> one rcjd hosting the live
// index "lp" (inner side) and the static index "q", every flag at its
// default. The client interleaves two queries with one mutation batch.
type liveShape struct {
	cfg runConfig
	dir string
	sz  sizes

	pool  []rcj.Point // the Gaussian family: the first baseN points are the base, the rest the insert stream
	baseN int
	q     []rcj.Point
	batch int // inserts (= deletes) per mutation batch

	daemon  *proc
	hc      *http.Client
	clients []*liveClient
	ref     *reference

	counters loadCounters
	deltaMax int
}

// liveClients is the number of closed-loop client connections. One, for the
// reason serve_sharded has one (see shardedClients): with two, daemon,
// compactor and clients saturate both cores and the box's speed swings
// decide the numbers (176 operations/s, then 135 three runs later).
// Compaction still runs beside the client's reads and writes.
const liveClients = 1

func newLive(cfg runConfig, dir string, sz sizes) shape {
	return &liveShape{cfg: cfg, dir: dir, sz: sz, hc: newClient(liveClients)}
}

// liveClient is one closed-loop client and its share of the model. Clients
// own disjoint ids (base ids by parity, inserts by parity of their position
// in the stream), so every batch is valid whatever the interleaving and the
// final point set is known without asking the daemon.
type liveClient struct {
	id     int
	rng    *rand.Rand
	next   int       // next position in the insert stream
	stride int       // distance between this client's positions in the stream
	old    []int64   // owned live ids older than the recent batches
	recent [][]int64 // owned live ids of the last recentBatches inserts
	step   int
}

// recentBatches is how many insert batches stay "recent": half of every
// batch's deletes come from them (shrinking the delta), half from older
// points (adding tombstones once those are sealed), so both grow.
const recentBatches = 4

func (l *liveShape) point(id int64) rcj.Point { return l.pool[id] }

func (l *liveShape) setup(ctx context.Context) error {
	bin, err := l.cfg.env.daemons()
	if err != nil {
		return err
	}
	l.baseN = l.sz.large
	l.batch = 256
	if l.sz.reduced {
		l.batch = 8
	}
	// One generator call for base and insert stream: point i belongs to
	// cluster i mod 10, so any prefix and any suffix follow the same
	// distribution and the dataset keeps its shape as it turns over.
	l.pool = gaussSet(l.baseN+l.streamLen(), corpusSeed)
	l.q = uniformSet(l.sz.large, corpusSeed)

	basePath := filepath.Join(l.dir, "lp.rcjx")
	qPath := filepath.Join(l.dir, "q.rcjx")
	for _, f := range []struct {
		path string
		pts  []rcj.Point
	}{{basePath, l.pool[:l.baseN]}, {qPath, l.q}} {
		ix, err := rcj.BuildIndex(f.pts, rcj.IndexConfig{})
		if err != nil {
			return err
		}
		err = ix.Save(f.path)
		ix.Close()
		if err != nil {
			return err
		}
	}
	l.daemon, err = startProc(ctx, "rcjd", filepath.Join(bin, "rcjd"), "-index", "q="+qPath, "-live-index", "lp="+basePath)
	if err != nil {
		return err
	}
	l.clients = make([]*liveClient, liveClients)
	for c := range l.clients {
		lc := &liveClient{id: c, rng: rand.New(rand.NewSource(l.cfg.seed*53 + int64(c)*811 + 3)), next: c, stride: liveClients}
		for id := c; id < l.baseN; id += liveClients {
			lc.old = append(lc.old, int64(id))
		}
		l.clients[c] = lc
	}
	warm := 30
	if l.sz.reduced {
		warm = 6
	}
	l.drive(ctx, func(_, done int, _ time.Time) bool { return done < warm })
	return ctx.Err()
}

// streamLen bounds the inserts one run can make: five times what a run
// reaches, cheap to generate.
func (l *liveShape) streamLen() int {
	if l.sz.reduced {
		return 4096
	}
	return 1 << 19
}

func (l *liveShape) prepare(brute bool) error {
	l.ref = newReference()
	return nil
}

// nextOp is the client's schedule: query, query, mutation batch, repeat.
// Queries alternate top-k-in-window and window.
func (l *liveShape) nextOp(c *liveClient) op {
	step := c.step
	c.step++
	if step%3 != 2 {
		centre := l.q[c.rng.Intn(len(l.q))]
		side := (400 + 400*c.rng.Float64()) * l.sz.stretch
		o := op{class: classWindow, p: "lp", q: "q", qry: rcj.Query{Region: window(centre, side)}}
		if (step/3+step%3)%2 == 0 {
			o.class, o.qry.TopK = classTopK, 10
		}
		return o
	}
	o := op{class: classWrite, p: "lp"}
	var fresh []int64
	for i := 0; i < l.batch && c.next < len(l.pool)-l.baseN; i++ {
		id := int64(l.baseN + c.next)
		c.next += c.stride
		o.ins = append(o.ins, l.point(id))
		fresh = append(fresh, id)
	}
	half := l.batch / 2
	for i := 0; i < half; i++ {
		// Recent: a random live id of a random recent batch.
		if len(c.recent) == 0 {
			break
		}
		b := c.rng.Intn(len(c.recent))
		if len(c.recent[b]) == 0 {
			continue
		}
		j := c.rng.Intn(len(c.recent[b]))
		o.del = append(o.del, c.recent[b][j])
		c.recent[b][j] = c.recent[b][len(c.recent[b])-1]
		c.recent[b] = c.recent[b][:len(c.recent[b])-1]
	}
	for len(o.del) < l.batch && len(c.old) > 0 {
		j := c.rng.Intn(len(c.old))
		o.del = append(o.del, c.old[j])
		c.old[j] = c.old[len(c.old)-1]
		c.old = c.old[:len(c.old)-1]
	}
	c.recent = append(c.recent, fresh)
	if len(c.recent) > recentBatches {
		c.old = append(c.old, c.recent[0]...)
		c.recent = c.recent[1:]
	}
	return o
}

// model is the harness's own account of the live point set: base + inserts
// - deletes, from the clients' books.
func (l *liveShape) model() []rcj.Point {
	var pts []rcj.Point
	for _, c := range l.clients {
		for _, id := range c.old {
			pts = append(pts, l.point(id))
		}
		for _, b := range c.recent {
			for _, id := range b {
				pts = append(pts, l.point(id))
			}
		}
	}
	return pts
}

func (l *liveShape) send(ctx context.Context, o op) (sample, digest, error) {
	if o.class == classWrite {
		ms, err := doMutate(ctx, l.hc, l.daemon.url()+"/indexes/lp/points", mutationFor(o))
		return sample{class: o.class, ms: ms, first: -1, fail: err != nil}, digest{}, err
	}
	r, err := doJoin(ctx, l.hc, l.daemon.url()+"/join", bodyFor(o, 0))
	sm := sample{class: o.class, ms: r.ms, first: r.first, bytes: r.bytes, par: r.par, fail: err != nil}
	if o.qry.TopK > 0 {
		sm.first = -1
	}
	if r.accesses > 0 && !r.cached {
		sm.est = float64(r.est) / float64(r.accesses)
	}
	return sm, r.d, err
}

func (l *liveShape) drive(ctx context.Context, more func(client, done int, start time.Time) bool) phase {
	var (
		wg      sync.WaitGroup
		samples = make([][]sample, len(l.clients))
		errs    = make([]error, len(l.clients))
	)
	start := time.Now()
	for c := range l.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for done := 0; more(c, done, start) && ctx.Err() == nil; done++ {
				o := l.nextOp(l.clients[c])
				sm, _, err := l.send(ctx, o)
				sm.at = time.Since(start).Seconds()
				sm.group = int(sm.at / sliceSeconds)
				if err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("%s: %w", o.class, err)
				}
				samples[c] = append(samples[c], sm)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start).Seconds(), sliced: true}
	for c := range samples {
		ph.samples = append(ph.samples, samples[c]...)
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(logw, "perf: serve_live:", err)
			break
		}
	}
	return ph
}

func (l *liveShape) load(ctx context.Context, seconds float64) (phase, error) {
	before, err := l.snapshot(ctx)
	if err != nil {
		return phase{}, err
	}
	// The delta's high-water mark needs sampling: it is a gauge that every
	// compaction resets.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if s, err := l.snapshot(ctx); err == nil && s.workers[0].Live.DeltaPoints > l.deltaMax {
					l.deltaMax = s.workers[0].Live.DeltaPoints
				}
			}
		}
	}()
	ph := l.drive(ctx, func(_, _ int, start time.Time) bool {
		return time.Since(start).Seconds() < seconds
	})
	close(stop)
	wg.Wait()
	after, err := l.snapshot(ctx)
	if err != nil {
		return ph, err
	}
	l.counters = after.sub(before)
	// Final-state equivalence: the daemon's self-join of lp must equal the
	// self-join of a fresh index over the model. A mismatch fails the whole
	// phase: no single response can be blamed.
	if err := l.checkFinalState(ctx, l.cfg.corrupt); err != nil {
		fmt.Fprintln(logw, "perf: serve_live:", err)
		for i := range ph.samples {
			ph.samples[i].fail = true
		}
	}
	return ph, nil
}

func (l *liveShape) checkFinalState(ctx context.Context, corrupt bool) error {
	pts := l.model()
	eng := rcj.NewEngine(rcj.EngineConfig{})
	ix, err := eng.BuildIndex(pts, rcj.IndexConfig{})
	if err != nil {
		return err
	}
	defer ix.Close()
	want, _, err := eng.RunSelfCollect(ctx, ix, rcj.Query{Algorithm: rcj.OBJ, ForceAlgorithm: true, Parallelism: 1})
	if err != nil {
		return err
	}
	r, err := doJoin(ctx, l.hc, l.daemon.url()+"/join", bodyFor(op{p: "lp"}, 0))
	if err != nil {
		return fmt.Errorf("final self-join: %w", err)
	}
	wd := digestOf(want)
	if corrupt {
		wd.h++
	}
	if r.d != wd {
		return fmt.Errorf("final state differs from the model: daemon %d pairs (digest %x), fresh build over %d points %d pairs (%x)",
			r.d.n, r.d.h, len(pts), wd.n, wd.h)
	}
	return nil
}

// checkPass is the oracle leg: one client, sequential, so every response
// can be compared with the brute force over the model at that moment.
func (l *liveShape) checkPass(ctx context.Context) error {
	c := l.clients[0]
	for round := 0; round < 3; round++ {
		l.ref = newReference()
		l.ref.addBruteMaster("lp", "q", l.model(), l.q)
		for i := 0; i < 3; i++ {
			o := l.nextOp(c)
			_, d, err := l.send(ctx, o)
			if err != nil {
				return fmt.Errorf("%s: %w", o.class, err)
			}
			if o.class == classWrite {
				continue
			}
			o.key = round*3 + i
			if want := l.ref.expect(o); d != want {
				return fmt.Errorf("%s after %d batches: got %d pairs (digest %x), want %d (%x)", o.class, round, d.n, d.h, want.n, want.h)
			}
		}
	}
	return l.checkFinalState(ctx, false)
}

func (l *liveShape) snapshot(ctx context.Context) (loadCounters, error) {
	var wm workerMetrics
	if err := getJSON(ctx, l.hc, l.daemon.url()+"/metrics", &wm); err != nil {
		return loadCounters{}, err
	}
	return loadCounters{workers: []workerMetrics{wm}, cpuS: l.daemon.cpuSeconds(), rssMB: l.daemon.peakRSSMB()}, nil
}

func (l *liveShape) close() {
	l.daemon.stop()
	l.daemon = nil
	l.hc.CloseIdleConnections()
}
