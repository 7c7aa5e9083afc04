package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/shard"
	"repro/rcj"
)

// sharded is the serve_sharded workload: real binaries over loopback,
// client -> rcjrouter -> 2 rcjd holding the grid shards of one two-set
// dataset, every flag at its default.
type sharded struct {
	cfg runConfig
	dir string
	sz  sizes

	p, q     []rcj.Point // G (inner) and U (outer)
	bound    float64     // manifest MaxDiameter
	manifest string
	man      *shard.Manifest
	owned    [][]int // shard ids per worker
	workers  []*proc
	router   *proc
	hc       *http.Client

	spots   []spot // window positions, most popular first
	zipf    *zipf  // position popularity
	clients []*rand.Rand
	ref     *reference

	shardBuildS float64
	counters    loadCounters // deltas over the last load phase
}

// shardedClients is the number of closed-loop client connections. One, not
// the box's two cores: client, router and two workers already keep both
// cores at three quarters, region pruning leaves 1.2 sub-queries per request
// (so a second client queued nothing in the workers either), and with both
// cores saturated the box's own speed swings decided the numbers: the same
// seed gave 68 to 95 operations/s with two clients.
const shardedClients = 1

// warmupOps is the warm-up each client sends before timing starts.
const warmupOps = 150

func newSharded(cfg runConfig, dir string, sz sizes) shape {
	return &sharded{cfg: cfg, dir: dir, sz: sz, hc: newClient(shardedClients)}
}

func (s *sharded) setup(ctx context.Context) error {
	bin, err := s.cfg.env.daemons()
	if err != nil {
		return err
	}
	s.p = gaussSet(s.sz.large, corpusSeed)
	s.q = uniformSet(s.sz.large, corpusSeed)
	s.bound = 200 * s.sz.stretch
	s.manifest = filepath.Join(s.dir, "perf.rcjm")
	t0 := time.Now()
	s.man, err = shard.Build(s.manifest, s.p, s.q, shard.BuildConfig{Shards: 4, MaxDiameter: s.bound, Name: "perf"})
	if err != nil {
		return err
	}
	s.shardBuildS = time.Since(t0).Seconds()

	// Populated shards are dealt to two workers, two each at full size.
	var populated []int
	for _, sh := range s.man.Shards {
		if !sh.Empty() {
			populated = append(populated, sh.ID)
		}
	}
	if len(populated) == 0 {
		return fmt.Errorf("manifest has no populated shard")
	}
	half := (len(populated) + 1) / 2
	s.owned = [][]int{populated[:half]}
	if half < len(populated) {
		s.owned = append(s.owned, populated[half:])
	}
	routerArgs := []string{"-manifest", s.manifest}
	for i, ids := range s.owned {
		list := joinInts(ids)
		w, err := startProc(ctx, fmt.Sprintf("rcjd[%d]", i), filepath.Join(bin, "rcjd"), "-manifest", s.manifest, "-shards", list)
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
		routerArgs = append(routerArgs, "-worker", w.url()+"="+list)
	}
	if s.router, err = startProc(ctx, "rcjrouter", filepath.Join(bin, "rcjrouter"), routerArgs...); err != nil {
		return err
	}

	s.buildRequests()
	s.clients = make([]*rand.Rand, shardedClients)
	for c := range s.clients {
		s.clients[c] = rand.New(rand.NewSource(s.cfg.seed*31 + int64(c)*977 + 5))
	}
	warm := warmupOps
	if s.sz.reduced {
		warm = 8
	}
	s.drive(ctx, func(c, done int, _ time.Time) bool { return done < warm }, false)
	return ctx.Err()
}

func joinInts(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// spot is one window position clients ask about, with the parameters of
// the three requests made at it.
type spot struct {
	region *rcj.Rect
	maxD   float64
}

// zipfExponent shapes position popularity. At 1.0 the most popular position
// alone draws a ninth of the traffic and the ten most popular a third, so a
// run's numbers are those of a handful of windows and swing with the seed;
// 0.8 keeps a pronounced head (and the cache hit ratio mid-range) while
// spreading the traffic over enough positions to average.
const zipfExponent = 0.8

// globalShare is the share of requests that ask for the global top-100.
const globalShare = 0.02

// buildRequests lays out the window positions and their popularity ranks.
// They belong to the corpus: the seed decides which requests a client draws,
// not which positions are popular (the ten most popular draw a sixth of the
// traffic, and a seed whose ten lay in dense country ran a sixth slower than
// the rest, every time). Their count is tuned (never a daemon flag) so that
// the cacheable working set — the top-k request of each position, spread over
// two workers' caches — exceeds the result caches and the hit ratio sits
// mid-range.
func (s *sharded) buildRequests() {
	n := 4096
	if s.sz.reduced {
		n = 16
	}
	rng := rand.New(rand.NewSource(corpusSeed*131 + 7))
	s.spots = make([]spot, n)
	for i := range s.spots {
		c := s.q[rng.Intn(len(s.q))]
		side := (600 + 800*rng.Float64()) * s.sz.stretch
		s.spots[i] = spot{region: window(c, side), maxD: (40 + 80*rng.Float64()) * s.sz.stretch}
	}
	s.zipf = newZipf(n, zipfExponent)
}

// request is distinct request number key: 0 is the global top-100; the
// others are the top-10, the full window and the diameter-bounded window of
// one position.
func (s *sharded) request(key int) op {
	if key == 0 {
		return op{class: classTopK, p: "p", q: "q", qry: rcj.Query{TopK: 100}}
	}
	sp := s.spots[(key-1)/3]
	o := op{class: classWindow, p: "p", q: "q", qry: rcj.Query{Region: sp.region}, key: key}
	switch (key - 1) % 3 {
	case 0:
		o.class, o.qry.TopK = classTopK, 10
	case 2:
		o.class, o.qry.MaxDiameter = classMaxD, sp.maxD
	}
	return o
}

// requests is the number of distinct requests.
func (s *sharded) requests() int { return 1 + 3*len(s.spots) }

// draw is one client's next request: the position by popularity, the class
// with fixed probabilities — so the class mix of the traffic, and of its
// popular head, is the same whatever the seed.
func (s *sharded) draw(rng *rand.Rand) op {
	if rng.Float64() < globalShare {
		return s.request(0)
	}
	return s.request(1 + 3*s.zipf.draw(rng) + rng.Intn(3))
}

func (s *sharded) prepare(brute bool) error {
	s.ref = newReference()
	if brute {
		// The router answers every query under the manifest's diameter
		// bound, so the oracle's expectation is bounded the same way.
		s.ref.addBruteMaster("p", "q", s.p, s.q)
		s.ref.bound = s.bound
	} else {
		eng := rcj.NewEngine(rcj.EngineConfig{})
		p, err := eng.BuildIndex(s.p, rcj.IndexConfig{})
		if err != nil {
			return err
		}
		defer p.Close()
		q, err := eng.BuildIndex(s.q, rcj.IndexConfig{})
		if err != nil {
			return err
		}
		defer q.Close()
		if err := s.ref.addMaster(eng, "p", "q", p, q, s.bound); err != nil {
			return err
		}
	}
	if s.cfg.corrupt && !brute {
		o := s.request(1)
		d := s.ref.expect(o)
		d.h++
		s.ref.memo[o.key] = d
	}
	return nil
}

// answer is what one client op returned, kept for checking after the phase.
type answer struct {
	key int
	d   digest
}

// drive runs the closed-loop clients: each draws its next request by
// popularity, sends it, reads the stream to the end. more decides, per
// client, whether to send another. Answers are checked after the phase
// (when check is set), so reference look-ups never sit between two sends.
func (s *sharded) drive(ctx context.Context, more func(client, done int, start time.Time) bool, check bool) phase {
	var (
		wg      sync.WaitGroup
		samples = make([][]sample, len(s.clients))
		answers = make([][]answer, len(s.clients))
		errs    = make([]error, len(s.clients))
	)
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := s.clients[c]
			for done := 0; more(c, done, start) && ctx.Err() == nil; done++ {
				o := s.draw(rng)
				r, err := doJoin(ctx, s.hc, s.router.url()+"/join", bodyFor(o, 0))
				sm := sample{class: o.class, ms: r.ms, first: r.first, bytes: r.bytes, par: r.par, fail: err != nil}
				sm.at = time.Since(start).Seconds()
				sm.group = int(sm.at / sliceSeconds)
				if o.qry.TopK > 0 {
					sm.first = -1
				}
				if err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("%s request %d: %w", o.class, o.key, err)
				}
				samples[c] = append(samples[c], sm)
				answers[c] = append(answers[c], answer{o.key, r.d})
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start).Seconds(), sliced: true}
	for c := range samples {
		for i, sm := range samples[c] {
			if check && !sm.fail && answers[c][i].d != s.ref.expect(s.request(answers[c][i].key)) {
				sm.fail = true
				if errs[c] == nil {
					errs[c] = fmt.Errorf("request %d: wrong answer", answers[c][i].key)
				}
			}
			ph.samples = append(ph.samples, sm)
		}
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(logw, "perf: serve_sharded:", err)
			break
		}
	}
	return ph
}

func (s *sharded) load(ctx context.Context, seconds float64) (phase, error) {
	before, err := s.snapshot(ctx)
	if err != nil {
		return phase{}, err
	}
	ph := s.drive(ctx, func(_, _ int, start time.Time) bool {
		return time.Since(start).Seconds() < seconds
	}, true)
	after, err := s.snapshot(ctx)
	if err != nil {
		return ph, err
	}
	s.counters = after.sub(before)
	return ph, nil
}

func (s *sharded) checkPass(ctx context.Context) error {
	for key := 0; key < s.requests(); key++ {
		o := s.request(key)
		r, err := doJoin(ctx, s.hc, s.router.url()+"/join", bodyFor(o, 0))
		if err != nil {
			return fmt.Errorf("%s request %d: %w", o.class, o.key, err)
		}
		if want := s.ref.expect(o); r.d != want {
			return fmt.Errorf("%s request %d: got %d pairs (digest %x), want %d (%x)", o.class, o.key, r.d.n, r.d.h, want.n, want.h)
		}
	}
	return nil
}

func (s *sharded) close() {
	s.router.stop()
	for _, w := range s.workers {
		w.stop()
	}
	s.router, s.workers = nil, nil
	s.hc.CloseIdleConnections()
}

// loadCounters are the outside counters of the system's processes over a
// load phase: what /metrics and /proc say.
type loadCounters struct {
	workers []workerMetrics
	router  routerMetrics
	cpuS    float64
	rssMB   float64
}

func (s *sharded) snapshot(ctx context.Context) (loadCounters, error) {
	var lc loadCounters
	for _, w := range s.workers {
		var wm workerMetrics
		if err := getJSON(ctx, s.hc, w.url()+"/metrics", &wm); err != nil {
			return lc, err
		}
		lc.workers = append(lc.workers, wm)
		lc.cpuS += w.cpuSeconds()
		lc.rssMB += w.peakRSSMB()
	}
	if err := getJSON(ctx, s.hc, s.router.url()+"/metrics", &lc.router); err != nil {
		return lc, err
	}
	lc.cpuS += s.router.cpuSeconds()
	lc.rssMB += s.router.peakRSSMB()
	return lc, nil
}

// sub returns the counters accumulated since before (peak RSS is a
// high-water mark, not a delta).
func (a loadCounters) sub(b loadCounters) loadCounters {
	out := loadCounters{cpuS: a.cpuS - b.cpuS, rssMB: a.rssMB}
	for i := range a.workers {
		out.workers = append(out.workers, a.workers[i].sub(b.workers[i]))
	}
	out.router = routerMetrics{
		Requests:         a.router.Requests - b.router.Requests,
		Subqueries:       a.router.Subqueries - b.router.Subqueries,
		Retries:          a.router.Retries - b.router.Retries,
		ShardsContacted:  a.router.ShardsContacted - b.router.ShardsContacted,
		ShardsPruned:     a.router.ShardsPruned - b.router.ShardsPruned,
		BoundTightenings: a.router.BoundTightenings - b.router.BoundTightenings,
		DedupDropped:     a.router.DedupDropped - b.router.DedupDropped,
	}
	return out
}

func (a workerMetrics) sub(b workerMetrics) workerMetrics {
	out := a
	out.Sched.Admitted -= b.Sched.Admitted
	out.Sched.RejectedOverload -= b.Sched.RejectedOverload
	out.Sched.RejectedQueueTimeout -= b.Sched.RejectedQueueTimeout
	out.Sched.RejectedDraining -= b.Sched.RejectedDraining
	out.Sched.BatchedRequests -= b.Sched.BatchedRequests
	out.Sched.QueueWait.SumSeconds -= b.Sched.QueueWait.SumSeconds
	out.Sched.QueueWait.Counts = append([]int64(nil), a.Sched.QueueWait.Counts...)
	for i := range out.Sched.QueueWait.Counts {
		if i < len(b.Sched.QueueWait.Counts) {
			out.Sched.QueueWait.Counts[i] -= b.Sched.QueueWait.Counts[i]
		}
	}
	out.ResultCache.Hits -= b.ResultCache.Hits
	out.ResultCache.Misses -= b.ResultCache.Misses
	out.Live.Compactions -= b.Live.Compactions
	out.Live.CompactSeconds -= b.Live.CompactSeconds
	return out
}

// fillOutside turns the outside counters of a load phase into the layer
// metrics only a loaded system shows.
func (lc loadCounters) fillOutside(m map[string]float64, ops int) {
	var (
		admitted, rejected, batched, hits, misses int64
		counts                                    []int64
		bounds                                    []float64
		waitS                                     float64
	)
	for _, w := range lc.workers {
		admitted += w.Sched.Admitted
		rejected += w.Sched.RejectedOverload + w.Sched.RejectedQueueTimeout + w.Sched.RejectedDraining
		batched += w.Sched.BatchedRequests
		hits += w.ResultCache.Hits
		misses += w.ResultCache.Misses
		bounds = w.Sched.QueueWait.BoundsSeconds
		waitS += w.Sched.QueueWait.SumSeconds
		if counts == nil {
			counts = make([]int64, len(w.Sched.QueueWait.Counts))
		}
		for i, c := range w.Sched.QueueWait.Counts {
			counts[i] += c
		}
	}
	m["sched.queue_wait_p50_ms"] = histQuantile(bounds, counts, waitS, 0.50) * 1e3
	m["sched.queue_wait_p95_ms"] = histQuantile(bounds, counts, waitS, 0.95) * 1e3
	m["sched.batched_share"] = ratio(float64(batched), float64(admitted))
	m["sched.rejected_share"] = ratio(float64(rejected), float64(admitted+rejected))
	m["server.result_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["proc.cpu_ms_per_op"] = ratio(lc.cpuS*1e3, float64(ops))
	m["proc.peak_rss_mb"] = lc.rssMB
}
