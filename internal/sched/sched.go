// Package sched is the join scheduler of the serving layer: it wraps a
// long-lived rcj.Engine with the admission control a daemon needs to survive
// heavy traffic. At most MaxConcurrent joins run at once; up to MaxQueue
// further requests wait in strict FIFO order; everything beyond that is
// rejected immediately with ErrOverloaded, so an overloaded server sheds
// load in O(1) instead of accumulating goroutines. Waiters abandon the
// queue when their context ends or QueueTimeout elapses (ErrQueueTimeout),
// admitted joins run under an optional per-request deadline (JoinTimeout),
// and cancelling a request's context propagates promptly into the join
// executor, freeing the slot within a leaf or two.
//
// A scheduler drains gracefully: BeginDrain stops admitting new requests
// (ErrDraining) while already-admitted work — running and queued — streams
// to completion; Drain additionally waits for the last slot to free. This
// is the SIGTERM path of cmd/rcjd.
//
// A request is two indexes and an rcj.Query — the same index twice for a
// self-join — admitted through Run: the scheduler resolves the plan against
// its own load (once; a query that arrives resolved keeps its decision),
// waits for a slot, and returns the engine's stream.
//
// Per-request statistics ride on the engine's tagged buffer attribution
// (rcj.Query.Stats): each admitted join reports its exact node
// accesses, page faults, and buffer hit rate even while other joins hammer
// the same pool, and the scheduler aggregates them into a Snapshot for the
// /metrics endpoint.
package sched

import (
	"container/list"
	"context"
	"errors"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"repro/rcj"
)

// Typed admission-control rejections. Servers map these to backpressure
// status codes (429 for overload/timeout, 503 for draining).
var (
	// ErrOverloaded is returned when all join slots are busy and the FIFO
	// queue is at capacity: the request was rejected without waiting.
	ErrOverloaded = errors.New("sched: overloaded: join queue is full")
	// ErrQueueTimeout is returned when a request waited QueueTimeout in the
	// admission queue without a slot freeing up.
	ErrQueueTimeout = errors.New("sched: timed out waiting for a join slot")
	// ErrDraining is returned once BeginDrain/Drain has been called: the
	// scheduler is shutting down and admits no new requests.
	ErrDraining = errors.New("sched: draining, not accepting new joins")
)

// Config sizes a Scheduler. The zero value of a field selects its default.
type Config struct {
	// MaxConcurrent is the number of joins allowed to run simultaneously
	// (default 1).
	MaxConcurrent int
	// MaxQueue bounds how many admitted-but-waiting requests may queue
	// beyond the running ones; 0 means no queue — a request either gets a
	// slot immediately or is rejected with ErrOverloaded. Negative means an
	// unbounded queue (not recommended for serving).
	MaxQueue int
	// QueueTimeout bounds how long one request may wait in the queue before
	// being rejected with ErrQueueTimeout; 0 means wait as long as the
	// request's context allows.
	QueueTimeout time.Duration
	// JoinTimeout is the per-request execution deadline applied to each
	// admitted join (queue wait excluded); 0 means none.
	JoinTimeout time.Duration

	// Batch is ignored: every request runs its own traversal.
	//
	// Deprecated: see BatchConfig.
	Batch BatchConfig
}

// BatchConfig, DefaultBatchMaxRequests and Config.Batch configured
// cross-request traversal batching, which is gone: on a mix of full, self,
// top-10 and window joins it never fired at 2 clients and halved
// throughput at 4 (BenchmarkSchedulerClients). The scheduler ignores them.
//
// Deprecated: kept only because the frozen benchmark names them
// (perf/inproc.go:29); they go with the next benchmark PR.
type BatchConfig struct {
	Enabled     bool
	MaxRequests int
}

// DefaultBatchMaxRequests is ignored.
//
// Deprecated: see BatchConfig.
const DefaultBatchMaxRequests = 16

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	return c
}

// waiter is one queued admission request. grant removes it from the queue
// (el = nil) before closing ready, so a waiter that finds itself off the
// queue when abandoning knows it owns a slot and must release it.
type waiter struct {
	ready chan struct{}
	el    *list.Element
}

// Snapshot is a point-in-time view of the scheduler's counters, the payload
// of the daemon's /metrics endpoint. Gauge fields (InFlight, Queued) are
// instantaneous; the rest are cumulative since construction.
type Snapshot struct {
	InFlight int  `json:"in_flight"`
	Queued   int  `json:"queued"`
	Draining bool `json:"draining"`

	Admitted             int64 `json:"admitted"`
	Completed            int64 `json:"completed"`
	Failed               int64 `json:"failed"`
	RejectedOverload     int64 `json:"rejected_overload"`
	RejectedQueueTimeout int64 `json:"rejected_queue_timeout"`
	RejectedDraining     int64 `json:"rejected_draining"`

	PairsEmitted int64 `json:"pairs_emitted"`

	// Subscriptions is the number of live continuous-query streams
	// registered via Subscribe (a gauge); Started/Ended are cumulative.
	Subscriptions        int   `json:"subscriptions"`
	SubscriptionsStarted int64 `json:"subscriptions_started"`
	SubscriptionsEnded   int64 `json:"subscriptions_ended"`

	// Exact tagged buffer attribution summed over completed serving joins.
	BufferAccesses int64 `json:"buffer_accesses"`
	BufferHits     int64 `json:"buffer_hits"`
	BufferMisses   int64 `json:"buffer_misses"`

	// QueueWait distributes the admission wait of every admitted request
	// (immediate grants land in the lowest bucket); JoinLatency distributes
	// the execution time of every join that terminated (completed or
	// failed), queue wait excluded. Histograms, not just counters, so the
	// 429 tuning (MaxQueue, QueueTimeout, MaxConcurrent) is driven by the
	// shape of the wait distribution rather than an average.
	QueueWait   HistogramSnapshot `json:"queue_wait"`
	JoinLatency HistogramSnapshot `json:"join_latency"`
}

// BufferHitRatio returns the aggregate buffer hit rate over served joins.
func (s Snapshot) BufferHitRatio() float64 {
	if s.BufferAccesses == 0 {
		return 0
	}
	return float64(s.BufferHits) / float64(s.BufferAccesses)
}

// Scheduler wraps an Engine with bounded-concurrency admission control.
// All methods are safe for concurrent use.
type Scheduler struct {
	eng *rcj.Engine
	cfg Config

	mu       sync.Mutex
	running  int
	queue    *list.List // of *waiter, front = next to be granted
	draining bool
	drained  chan struct{}          // closed when draining and the last admitted work ends
	closed   bool                   // drained has been closed
	subs     map[*subEntry]struct{} // live subscriptions (see Subscribe), guarded by mu

	admitted             atomic.Int64
	completed            atomic.Int64
	failed               atomic.Int64
	rejectedOverload     atomic.Int64
	rejectedQueueTimeout atomic.Int64
	rejectedDraining     atomic.Int64
	pairsEmitted         atomic.Int64
	bufAccesses          atomic.Int64
	bufHits              atomic.Int64
	bufMisses            atomic.Int64
	subsStarted          atomic.Int64
	subsEnded            atomic.Int64

	queueWait   histogram
	joinLatency histogram
}

// New returns a scheduler admitting joins into eng under cfg's bounds.
func New(eng *rcj.Engine, cfg Config) *Scheduler {
	return &Scheduler{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		queue:   list.New(),
		drained: make(chan struct{}),
		subs:    make(map[*subEntry]struct{}),
	}
}

// Engine returns the engine the scheduler admits joins into.
func (s *Scheduler) Engine() *rcj.Engine { return s.eng }

// Config returns the scheduler's effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Acquire blocks until the caller owns a join slot, the context ends, or
// admission control rejects the request (ErrOverloaded, ErrQueueTimeout,
// ErrDraining). On success the returned release function must be called
// exactly once when the work is done; it is idempotent. Acquire is exported
// for callers scheduling other work under the same admission bounds.
func (s *Scheduler) Acquire(ctx context.Context) (release func(), err error) {
	start := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if s.running < s.cfg.MaxConcurrent {
		s.running++
		s.mu.Unlock()
		s.admitted.Add(1)
		s.queueWait.observe(time.Since(start))
		return s.releaseOnce(), nil
	}
	if s.cfg.MaxQueue >= 0 && s.queue.Len() >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rejectedOverload.Add(1)
		return nil, ErrOverloaded
	}
	w := &waiter{ready: make(chan struct{})}
	w.el = s.queue.PushBack(w)
	s.mu.Unlock()

	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ready:
		s.admitted.Add(1)
		s.queueWait.observe(time.Since(start))
		return s.releaseOnce(), nil
	case <-ctx.Done():
		if s.abandon(w) {
			return nil, ctx.Err()
		}
		// Granted concurrently with the cancellation: we own a slot we will
		// never use — hand it back before reporting the error.
		s.release()
		return nil, ctx.Err()
	case <-timeout:
		if s.abandon(w) {
			s.rejectedQueueTimeout.Add(1)
			return nil, ErrQueueTimeout
		}
		s.release()
		s.rejectedQueueTimeout.Add(1)
		return nil, ErrQueueTimeout
	}
}

// abandon removes w from the queue, reporting false if w was already
// granted a slot (and is therefore no longer queued).
func (s *Scheduler) abandon(w *waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.el == nil {
		return false
	}
	s.queue.Remove(w.el)
	w.el = nil
	return true
}

// releaseOnce wraps release for hand-out: callers may be sloppy about
// double-invoking it on error paths without corrupting the slot count.
func (s *Scheduler) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(s.release) }
}

// release frees one slot: the queue head inherits it (FIFO), otherwise the
// running count drops; the last release during a drain closes drained.
// Queued waiters were admitted before the drain began, so a drain lets them
// run rather than rejecting work the server already accepted.
func (s *Scheduler) release() {
	s.mu.Lock()
	if el := s.queue.Front(); el != nil {
		w := el.Value.(*waiter)
		s.queue.Remove(el)
		w.el = nil
		close(w.ready) // slot transfers; running count is unchanged
		s.mu.Unlock()
		return
	}
	s.running--
	s.maybeDrainedLocked()
	s.mu.Unlock()
}

// maybeDrainedLocked closes drained once a draining scheduler has no
// admitted work left — no running joins, no queued waiters, and no live
// subscriptions. Callers hold s.mu.
func (s *Scheduler) maybeDrainedLocked() {
	if s.draining && s.running == 0 && s.queue.Len() == 0 && len(s.subs) == 0 && !s.closed {
		s.closed = true
		close(s.drained)
	}
}

// BeginDrain stops admitting new requests (they fail with ErrDraining).
// Running and already-queued joins proceed to completion; live
// subscriptions have their contexts cancelled — a subscription is unbounded
// work, so a drain ends it rather than waiting for it — and the drain
// completes once each has unregistered. Safe to call more than once.
func (s *Scheduler) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	for e := range s.subs {
		e.cancel()
	}
	s.maybeDrainedLocked()
	s.mu.Unlock()
}

// Drain begins draining (if not already) and blocks until every admitted
// join has finished or ctx ends, returning ctx.Err() in the latter case.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether BeginDrain/Drain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Run admits the streaming join (q, p, qry) — the same index twice is the
// self-join, as in rcj.Engine.Run — in three steps. It resolves the plan;
// a query that arrives resolved keeps its decision, and an invalid one
// passes through for the engine to refuse. It then blocks in admission
// control (Acquire), so typed rejections surface before any result bytes
// are produced, and returns a single-use iterator streaming the pairs
// exactly as rcj.Engine.Run would, on the goroutine ranging over it. The
// slot is held until the iterator terminates — completion, error, or the
// consumer breaking out — and is released automatically then; callers must
// consume (or at least begin and break out of) the iterator. When stats is
// non-nil it receives the join's exact per-request statistics once the
// iterator has terminated.
func (s *Scheduler) Run(ctx context.Context, q, p *rcj.Index, qry rcj.Query, stats *rcj.Stats) (iter.Seq2[rcj.Pair, error], error) {
	qry, _ = qry.ResolvePlan(q, p)
	release, err := s.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	return func(yield func(rcj.Pair, error) bool) {
		defer release()
		start := time.Now()
		defer func() { s.joinLatency.observe(time.Since(start)) }()
		jctx := ctx
		cancel := context.CancelFunc(func() {})
		if s.cfg.JoinTimeout > 0 {
			jctx, cancel = context.WithTimeout(ctx, s.cfg.JoinTimeout)
		}
		defer cancel()

		var st rcj.Stats
		qry.Stats = &st
		var pairs int64
		var failed bool
		for pr, err := range s.eng.Run(jctx, q, p, qry) {
			if err != nil {
				failed = true
				yield(pr, err)
				break
			}
			pairs++
			if !yield(pr, nil) {
				break
			}
		}
		s.pairsEmitted.Add(pairs)
		s.bufAccesses.Add(st.NodeAccesses)
		s.bufHits.Add(st.NodeAccesses - st.PageFaults)
		s.bufMisses.Add(st.PageFaults)
		if failed {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
		if stats != nil {
			*stats = st
		}
	}, nil
}

// RunSelf is Run(ctx, ix, ix, qry, stats).
//
// Deprecated: kept only because the frozen benchmark names it
// (perf/inproc.go:190); it goes with the next benchmark PR.
func (s *Scheduler) RunSelf(ctx context.Context, ix *rcj.Index, qry rcj.Query, stats *rcj.Stats) (iter.Seq2[rcj.Pair, error], error) {
	return s.Run(ctx, ix, ix, qry, stats)
}

// Snapshot returns the scheduler's current counters.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		InFlight: s.running,
		Queued:   s.queue.Len(),
		Draining: s.draining,
	}
	snap.Subscriptions = len(s.subs)
	s.mu.Unlock()
	snap.Admitted = s.admitted.Load()
	snap.Completed = s.completed.Load()
	snap.Failed = s.failed.Load()
	snap.RejectedOverload = s.rejectedOverload.Load()
	snap.RejectedQueueTimeout = s.rejectedQueueTimeout.Load()
	snap.RejectedDraining = s.rejectedDraining.Load()
	snap.PairsEmitted = s.pairsEmitted.Load()
	snap.SubscriptionsStarted = s.subsStarted.Load()
	snap.SubscriptionsEnded = s.subsEnded.Load()
	snap.BufferAccesses = s.bufAccesses.Load()
	snap.BufferHits = s.bufHits.Load()
	snap.BufferMisses = s.bufMisses.Load()
	snap.QueueWait = s.queueWait.snapshot()
	snap.JoinLatency = s.joinLatency.snapshot()
	return snap
}
