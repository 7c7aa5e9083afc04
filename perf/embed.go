package main

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/storage"
	"repro/rcj"
)

// sizes are the cardinalities and schedule length of one workload instance:
// full size, shrunk by -scale for the smoke test, or 300 points for the
// oracle leg.
type sizes struct {
	small int // the "4k" sets of the unconstrained joins
	large int // the "20k"/"40k" sets of the windowed queries
	// stretch widens windows and diameter bounds as datasets thin out, so a
	// shrunk dataset still returns pairs: 1/sqrt(density relative to full).
	stretch float64
	// reduced shortens the schedule to one or two operations per class and
	// drops the dataset replicas.
	reduced bool
}

// replicas is how many independent dataset families a full-size embedded
// run builds from its corpus seed. A pass visits every replica, so a metric
// averages over that many cluster layouts instead of reporting one.
func (s sizes) replicas() int {
	if s.reduced {
		return 1
	}
	return 4
}

func sizesFor(workload string, scale float64) sizes {
	large := 20000
	if workload == wServeSharded {
		large = 40000
	}
	s := sizes{small: 4000, large: large, stretch: 1}
	if scale < 1 {
		s.small = scaled(s.small, scale)
		s.large = scaled(large, scale)
		s.stretch = math.Sqrt(float64(large) / float64(s.large))
		s.reduced = true
	}
	return s
}

func oracleSizes() sizes {
	return sizes{small: 300, large: 300, stretch: math.Sqrt(20000.0 / 300), reduced: true}
}

// embed is the embed_warm / embed_cold workload: one caller goroutine
// draining Engine.Run iterators. Both open the same packed files and replay
// the same schedule; cold reads them through the file backend and a buffer
// of 1% of the pages.
type embed struct {
	cfg  runConfig
	dir  string
	sz   sizes
	cold bool

	names []string // index names: u4.<r>, g4.<r>, u20.<r>, g20.<r>
	sets  map[string][]rcj.Point
	built map[string]*rcj.Index // mem-built originals, kept for the reference
	files map[string]string
	// One engine per replica: the paper sizes the buffer against the trees
	// of the join at hand, so each replica's indexes share a pool of their
	// own and a query never benefits from another replica's share.
	engs []*rcj.Engine
	ix   map[string]*rcj.Index
	pass int // passes generated so far: windows are fresh in every pass
	ref  *reference

	buildS float64 // BuildIndex time, all sets
	openMS float64 // OpenIndex time, all sets
	bytes  int64   // packed file bytes, all sets
	pages  int

	loadCPU float64 // CPU seconds this process used during the last load phase
}

func setName(family string, replica int) string { return fmt.Sprintf("%s.%d", family, replica) }

func newEmbed(cfg runConfig, dir string, sz sizes, cold bool) *embed {
	return &embed{cfg: cfg, dir: dir, sz: sz, cold: cold}
}

func (e *embed) setup(ctx context.Context) error {
	e.sets = map[string][]rcj.Point{}
	for r := 0; r < e.sz.replicas(); r++ {
		ds := corpusSeed*1000 + int64(r)*10
		e.sets[setName("u4", r)] = uniformSet(e.sz.small, ds)
		e.sets[setName("g4", r)] = gaussSet(e.sz.small, ds)
		e.sets[setName("u20", r)] = uniformSet(e.sz.large, ds+2)
		e.sets[setName("g20", r)] = gaussSet(e.sz.large, ds+2)
		for _, f := range []string{"u4", "g4", "u20", "g20"} {
			e.names = append(e.names, setName(f, r))
		}
	}
	e.built = map[string]*rcj.Index{}
	e.files = map[string]string{}
	for _, name := range e.names {
		t0 := time.Now()
		ix, err := rcj.BuildIndex(e.sets[name], rcj.IndexConfig{})
		if err != nil {
			return err
		}
		e.buildS += time.Since(t0).Seconds()
		e.built[name] = ix
		path := filepath.Join(e.dir, name+".rcjx")
		if err := ix.SavePacked(path); err != nil {
			return err
		}
		e.files[name] = path
		sb, err := storage.ReadSuperblockFile(path)
		if err != nil {
			return err
		}
		e.pages += sb.NumPages
		if fi, err := os.Stat(path); err == nil {
			e.bytes += fi.Size()
		}
	}
	if err := e.openEngines(); err != nil {
		return err
	}
	// Warm-up pass: fills the pool (warm) or the OS cache (cold).
	for _, o := range e.nextPass() {
		if _, _, err := e.exec(ctx, o); err != nil {
			return err
		}
	}
	return nil
}

// nextPass is the next pass of the cycle, which the seed enters at a pass
// of its choosing.
func (e *embed) nextPass() []op {
	e.pass++
	return embedPass(e.cfg.seed, int(e.cfg.seed%passCycle+passCycle)+e.pass, e.sz, e.sets)
}

// tracedPass is the pass the traced run replays: the same one whatever the
// load phase got through, so its counts repeat between runs, and between
// embed_warm and embed_cold.
func (e *embed) tracedPass() []op {
	return embedPass(e.cfg.seed, 0, e.sz, e.sets)
}

// replicaNames lists the index names of one replica.
func (e *embed) replicaNames(r int) []string {
	return e.names[4*r : 4*r+4]
}

// poolPages is the paper's default buffer for cold — 1% of the pages of
// the replica's indexes, floor 16 — and 0 (everything cached) for warm.
func (e *embed) poolPages() int {
	if !e.cold {
		return 0
	}
	return max(16, e.pages/e.sz.replicas()/100)
}

func (e *embed) openEngines() error {
	ec, ic := rcj.EngineConfig{}, rcj.IndexConfig{Backend: rcj.BackendMem}
	if e.cold {
		// Exact global LRU (one shard), node cache off.
		ec = rcj.EngineConfig{BufferPages: e.poolPages(), BufferShards: 1}
		ic = rcj.IndexConfig{Backend: rcj.BackendFile}
	}
	e.ix = map[string]*rcj.Index{}
	t0 := time.Now()
	for r := 0; r < e.sz.replicas(); r++ {
		eng := rcj.NewEngine(ec)
		e.engs = append(e.engs, eng)
		for _, name := range e.replicaNames(r) {
			ix, err := eng.OpenIndex(e.files[name], ic)
			if err != nil {
				return err
			}
			e.ix[name] = ix
		}
	}
	e.openMS = time.Since(t0).Seconds() * 1e3
	return nil
}

func closeAll(ixs map[string]*rcj.Index) {
	for _, ix := range ixs {
		ix.Close()
	}
}

// passCycle is the number of distinct passes the schedule holds; pass k is
// pass k mod passCycle again. A run gets through about as many, so every run
// times the same windows whatever its seed — with windows drawn afresh per
// seed, the 150 a run reaches made latency_p50_ms differ by a tenth between
// seeds for good (seed 5 fast, seed 9 slow, run after run).
const passCycle = 16

// embedPass is pass number k of the schedule: every replica's full join,
// self-join and global top-k, plus windows and diameter-bounded windows at
// positions of the pass's own, in an order the seed shuffles. Positions of
// its own make a run's percentiles a sample of hundreds of positions instead
// of a dozen (a window's cost depends strongly on where it lies); like the
// datasets they belong to the corpus, not to the seed. The class sizes keep
// every reported percentile away from a class boundary, where one operation
// more or less would move it by a class's worth: by latency the 12 bounded
// windows are the cheapest, then the 8 windows, then the 12 heavy joins, so
// p50 lies mid-window and p95 among the top-k queries; by time to first pair
// the 8 full and self joins come first, then the bounded windows, then the
// windows, so its median lies among the bounded windows.
func embedPass(seed int64, k int, sz sizes, sets map[string][]rcj.Point) []op {
	k %= passCycle
	rng := rand.New(rand.NewSource(corpusSeed*7919 + int64(k)*104729 + 17))
	reps := sz.replicas()
	nWin, nMaxD := 8, 12
	if sz.reduced {
		nWin, nMaxD = 2, 2
	}
	var ops []op
	for r := 0; r < reps; r++ {
		// Keys below 1000 name the operations every pass repeats.
		ops = append(ops,
			op{class: classFull, rep: r, p: setName("g4", r), q: setName("u4", r), key: 3 * r},
			op{class: classSelf, rep: r, p: setName("g4", r), key: 3*r + 1},
			op{class: classTopK, rep: r, p: setName("g20", r), q: setName("u20", r), qry: rcj.Query{TopK: 10}, key: 3*r + 2},
		)
	}
	for i := 0; i < nWin+nMaxD; i++ {
		r := i % reps
		pn, qn := setName("g20", r), setName("u20", r)
		// Centres are points of the uniform side: a window's cost depends on
		// where in the domain it lies, so positions must not follow the
		// seed's cluster layout.
		c := sets[qn][rng.Intn(len(sets[qn]))]
		side := (400 + 400*rng.Float64()) * sz.stretch
		o := op{class: classWindow, rep: r, p: pn, q: qn, qry: rcj.Query{Region: window(c, side)}, key: (k+1)*1000 + i}
		if i >= nWin {
			o.class = classMaxD
			o.qry.MaxDiameter = (60 + 80*rng.Float64()) * sz.stretch
		}
		ops = append(ops, o)
	}
	order := rand.New(rand.NewSource(seed*7919 + int64(k)*104729 + 23))
	order.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (e *embed) prepare(brute bool) error {
	e.ref = newReference()
	type pq struct{ p, q string }
	var masters []pq
	for r := 0; r < e.sz.replicas(); r++ {
		masters = append(masters, pq{setName("g4", r), setName("u4", r)}, pq{setName("g4", r), ""}, pq{setName("g20", r), setName("u20", r)})
	}
	for _, m := range masters {
		if brute {
			e.ref.addBruteMaster(m.p, m.q, e.sets[m.p], e.sets[m.q])
			continue
		}
		var q *rcj.Index
		if m.q != "" {
			q = e.built[m.q]
		}
		if err := e.ref.addMaster(e.engs[0], m.p, m.q, e.built[m.p], q, 0); err != nil {
			return err
		}
	}
	if e.cfg.corrupt && !brute {
		o := op{class: classSelf, p: setName("g4", 0), key: 1}
		d := e.ref.expect(o)
		d.h++
		e.ref.memo[o.key] = d
	}
	return nil
}

// exec drains one query through the engine the way an embedding caller
// would, leaving algorithm and parallelism to the planner.
func (e *embed) exec(ctx context.Context, o op) (sample, digest, error) {
	r, err := drainEngine(ctx, e.engs[o.rep], e.ix, o, 0)
	return r.sample, r.d, err
}

// engineRun is one drained Engine.Run: what the caller saw plus what the
// engine reported about it.
type engineRun struct {
	sample
	d   digest
	st  rcj.Stats
	dec rcj.PlanDecision
}

// drainEngine runs o on eng and drains the iterator. parallelism 0 leaves
// it to the planner.
func drainEngine(ctx context.Context, eng *rcj.Engine, ixs map[string]*rcj.Index, o op, parallelism int) (engineRun, error) {
	r := engineRun{sample: sample{class: o.class, first: -1}}
	qry := o.qry
	qry.Parallelism = parallelism
	qry.Stats = &r.st
	qry.PlanOut = &r.dec
	t0 := time.Now()
	var seq iter.Seq2[rcj.Pair, error]
	if o.self() {
		seq = eng.RunSelf(ctx, ixs[o.p], qry)
	} else {
		seq = eng.Run(ctx, ixs[o.q], ixs[o.p], qry)
	}
	for pr, err := range seq {
		if err != nil {
			return r, err
		}
		if r.d.n == 0 && o.qry.TopK == 0 {
			r.first = time.Since(t0).Seconds() * 1e3
		}
		r.d.add(pr.P.ID, pr.Q.ID)
	}
	r.ms = time.Since(t0).Seconds() * 1e3
	r.par = r.dec.Parallelism
	if r.st.NodeAccesses > 0 {
		r.est = float64(r.dec.EstAccesses) / float64(r.st.NodeAccesses)
	}
	return r, nil
}

// sumStats adds up what the engine reported about the runs of a pass.
func sumStats(runs []engineRun) rcj.Stats {
	var st rcj.Stats
	for _, r := range runs {
		st.Candidates += r.st.Candidates
		st.Results += r.st.Results
		st.NodeAccesses += r.st.NodeAccesses
		st.PageFaults += r.st.PageFaults
		st.NodesPruned += r.st.NodesPruned
		st.BoundKilledCandidates += r.st.BoundKilledCandidates
	}
	return st
}

func (e *embed) load(ctx context.Context, seconds float64) (phase, error) {
	cpu0 := selfCPUSeconds()
	defer func() { e.loadCPU = selfCPUSeconds() - cpu0 }()
	start := time.Now()
	var ph phase
	// Whole passes only, so the multiset of operations is a multiple of the
	// schedule whatever the speed of the code under test.
	for pass := 0; time.Since(start).Seconds() < seconds; pass++ {
		for _, o := range e.nextPass() {
			s, d, err := e.exec(ctx, o)
			s.at, s.group = time.Since(start).Seconds(), pass
			if err != nil {
				if ctx.Err() != nil {
					s.fail = true
					ph.samples = append(ph.samples, s)
					ph.wall = time.Since(start).Seconds()
					return ph, nil
				}
				return ph, err
			}
			if d != e.ref.expect(o) {
				s.fail = true
			}
			ph.samples = append(ph.samples, s)
		}
	}
	ph.wall = time.Since(start).Seconds()
	return ph, nil
}

func (e *embed) checkPass(ctx context.Context) error {
	for _, o := range e.nextPass() {
		_, d, err := e.exec(ctx, o)
		if err != nil {
			return err
		}
		if want := e.ref.expect(o); d != want {
			return fmt.Errorf("%s query %d: got %d pairs (digest %x), want %d (%x)", o.class, o.key, d.n, d.h, want.n, want.h)
		}
	}
	return nil
}

func (e *embed) close() {
	closeAll(e.ix)
	closeAll(e.built)
	e.ix, e.built = nil, nil
}
