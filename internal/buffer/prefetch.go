package buffer

import (
	"sync"
	"sync/atomic"
)

// PrefetchStats are cumulative counters of one Prefetcher. Together with the
// pool's PrefetchHits they tell the whole readahead story: how many pages
// were offered, how many loads actually ran, how many were wasted (already
// cached by the time the worker got there), and how many offers were shed
// because the queue was full.
type PrefetchStats struct {
	// Offered counts Offer calls that found the page absent and enqueued it.
	Offered int64
	// Dropped counts offers shed because the queue was full (readahead is
	// best-effort: it never blocks the demand path).
	Dropped int64
	// AlreadyCached counts offers and dequeued jobs skipped because demand
	// (or an earlier prefetch) had already cached the page.
	AlreadyCached int64
	// Loaded counts pages fetched and inserted ahead of demand.
	Loaded int64
	// Failed counts loads that returned an error (dropped silently: the
	// demand path will retry the page and surface the error with context).
	Failed int64
}

// Add accumulates o into s, field by field — the one place the counter
// arithmetic lives, so a future counter cannot be silently dropped from an
// aggregation site.
func (s *PrefetchStats) Add(o PrefetchStats) {
	s.Offered += o.Offered
	s.Dropped += o.Dropped
	s.AlreadyCached += o.AlreadyCached
	s.Loaded += o.Loaded
	s.Failed += o.Failed
}

// Sub returns s - o, field by field (the delta of two snapshots).
func (s PrefetchStats) Sub(o PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Offered:       s.Offered - o.Offered,
		Dropped:       s.Dropped - o.Dropped,
		AlreadyCached: s.AlreadyCached - o.AlreadyCached,
		Loaded:        s.Loaded - o.Loaded,
		Failed:        s.Failed - o.Failed,
	}
}

// prefetchJob is one queued readahead: load the page and insert it for key,
// or — when keys/loadBatch are set — load a run of pages in one substrate
// operation and insert each.
type prefetchJob struct {
	key  Key
	load func() (any, error)

	keys      []Key
	loadBatch func() ([]any, error)
}

// Prefetcher is a bounded asynchronous readahead executor in front of a
// Pool: callers Offer pages the traversal is about to want (e.g. the sibling
// children of an internal R-tree node), a small worker pool loads them
// outside every shard lock — the same load-outside-lock seam Get uses — and
// inserts them with PutPrefetched. High-latency pagers (HTTP range requests)
// hide round trips behind it; offers are non-blocking and shed under
// pressure, so a slow or failing substrate degrades readahead to a no-op
// instead of stalling the join.
//
// A Prefetcher must be Closed when its index detaches: Close waits for
// in-flight loads, so the pager underneath can be closed safely afterwards.
type Prefetcher struct {
	pool *Pool
	jobs chan prefetchJob

	mu      sync.RWMutex // guards closed vs. concurrent Offer sends
	closed  bool
	closing atomic.Bool // workers discard queued jobs once set
	wg      sync.WaitGroup

	offered atomic.Int64
	dropped atomic.Int64
	already atomic.Int64
	loaded  atomic.Int64
	failed  atomic.Int64
}

// NewPrefetcher starts a readahead executor over pool with the given worker
// count and queue depth (defaults: 2 workers, 64 jobs).
func NewPrefetcher(pool *Pool, workers, depth int) *Prefetcher {
	if workers <= 0 {
		workers = 2
	}
	if depth <= 0 {
		depth = 64
	}
	pf := &Prefetcher{pool: pool, jobs: make(chan prefetchJob, depth)}
	pf.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go pf.worker()
	}
	return pf
}

// Offer enqueues a readahead for k unless the page is already cached, the
// queue is full, or the prefetcher is closed. It never blocks; the return
// value reports whether the job was enqueued.
func (pf *Prefetcher) Offer(k Key, load func() (any, error)) bool {
	if pf.pool.Contains(k) {
		pf.already.Add(1)
		return false
	}
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	if pf.closed {
		return false
	}
	select {
	case pf.jobs <- prefetchJob{key: k, load: load}:
		pf.offered.Add(1)
		return true
	default:
		pf.dropped.Add(1)
		return false
	}
}

// OfferBatch enqueues one readahead job for a run of pages that loadBatch
// fetches together (one coalesced substrate operation, e.g. a multi-page
// HTTP range request), to be inserted under the given keys in order. The
// job is enqueued unless every page is already cached, the queue is full,
// or the prefetcher is closed; like Offer it never blocks. Counters treat
// the batch as one offer but count Loaded/AlreadyCached per page.
func (pf *Prefetcher) OfferBatch(keys []Key, loadBatch func() ([]any, error)) bool {
	if len(keys) == 0 {
		return false
	}
	allCached := true
	for _, k := range keys {
		if !pf.pool.Contains(k) {
			allCached = false
			break
		}
	}
	if allCached {
		pf.already.Add(int64(len(keys)))
		return false
	}
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	if pf.closed {
		return false
	}
	select {
	case pf.jobs <- prefetchJob{keys: keys, loadBatch: loadBatch}:
		pf.offered.Add(1)
		return true
	default:
		pf.dropped.Add(1)
		return false
	}
}

// worker drains the queue: re-check the pool (demand may have won the race
// since the offer), load outside all locks, insert. Once Close has begun,
// queued jobs are discarded instead of loaded — against a dead origin each
// load can burn the full retry budget, and Close must not wait for a
// backlog of those.
func (pf *Prefetcher) worker() {
	defer pf.wg.Done()
	for job := range pf.jobs {
		if pf.closing.Load() {
			pf.dropped.Add(1)
			continue
		}
		if job.loadBatch != nil {
			pf.runBatch(job)
			continue
		}
		if pf.pool.Contains(job.key) {
			pf.already.Add(1)
			continue
		}
		v, err := job.load()
		if err != nil {
			pf.failed.Add(1)
			continue
		}
		if pf.pool.PutPrefetched(job.key, v) {
			pf.loaded.Add(1)
		} else {
			pf.already.Add(1)
		}
	}
}

// runBatch executes one coalesced readahead job: re-check the pool (demand
// may have cached some of the run since the offer; if all of it, skip the
// fetch), load the run in one operation, insert what is still absent.
func (pf *Prefetcher) runBatch(job prefetchJob) {
	allCached := true
	for _, k := range job.keys {
		if !pf.pool.Contains(k) {
			allCached = false
			break
		}
	}
	if allCached {
		pf.already.Add(int64(len(job.keys)))
		return
	}
	vals, err := job.loadBatch()
	if err != nil || len(vals) != len(job.keys) {
		pf.failed.Add(1)
		return
	}
	for i, k := range job.keys {
		if pf.pool.PutPrefetched(k, vals[i]) {
			pf.loaded.Add(1)
		} else {
			pf.already.Add(1)
		}
	}
}

// Close stops accepting offers, discards queued jobs, and waits only for
// the loads already in flight — so closing an index whose origin has died
// costs at most one load's retry budget per worker, not the whole backlog's.
// Idempotent.
func (pf *Prefetcher) Close() {
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	pf.closed = true
	pf.closing.Store(true)
	close(pf.jobs)
	pf.mu.Unlock()
	pf.wg.Wait()
}

// Stats returns a snapshot of the prefetcher's counters.
func (pf *Prefetcher) Stats() PrefetchStats {
	return PrefetchStats{
		Offered:       pf.offered.Load(),
		Dropped:       pf.dropped.Load(),
		AlreadyCached: pf.already.Load(),
		Loaded:        pf.loaded.Load(),
		Failed:        pf.failed.Load(),
	}
}
