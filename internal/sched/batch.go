package sched

import (
	"context"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"repro/rcj"
)

// This file is the cross-request traversal batcher: when every join slot is
// busy, queued Run requests over the same indexes with compatible query
// shapes merge into ONE batch job that owns ONE queue slot and runs
// ONE leaf traversal — the envelope of the members' predicates — demuxing
// each verification batch to per-request streams filtered with each
// member's own Query.Matches. Under a hot-index query storm this multiplies
// served requests per traversal the same way the single-flight pager
// multiplies them per byte fetched.
//
// Soundness rests on the pushdown equivalence pinned since the query API
// landed: every pair-level predicate is set-identical to post-filtering, so
// filtering the loosest member (the envelope) with a member's Matches
// reproduces that member's own pushdown run — byte-identically for
// sequential traversals, whose batch order equals solo emission order.
//
// What batches: streaming Run queries without TopK (rankings need their own
// branch-and-bound bound; they are served by the server's result cache
// instead). Members may differ in MaxDiameter, MinDistance, Region, and
// Limit; they must agree on index pair (q == p being the self-join),
// resolved algorithm, metric and parallelism (the batch key). Limit members
// stop receiving at their cap; the traversal early-stops only once every
// member is done, so one Limit member's summary may wait for batch-mates —
// its pairs do not.
//
// Statistics: the shared traversal runs under one buffer tag, aggregated
// once into the scheduler's counters, so the pool-sum invariant stays
// exact. Each member's Stats reports the shared traversal's buffer/pruning
// work (the work its request participated in) with its own Results count.

// DefaultBatchMaxRequests bounds how many requests one batch job may serve
// when BatchConfig.MaxRequests is zero.
const DefaultBatchMaxRequests = 16

// BatchConfig enables cross-request traversal batching. The zero value
// disables it: batching changes queue semantics (members piggyback on one
// queue slot instead of occupying their own), so serving binaries opt in
// explicitly.
//
// Whether it pays depends on the traffic mix. Measured on vs off (U20k x
// G20k, rcjd defaults plus -max-queue 64, 2 CPUs, 3 x 12 s per cell):
//
//	8 clients, mixed window/full/max-diameter requests: 12.1-13.2 vs 7.9-8.2 ops/s, 70 % of requests batched
//	4 clients, windows only: 27.2-27.9 vs 29.1-29.4 ops/s (the envelope is the union of disjoint windows)
//	1 client: never fires, there is no queue to merge
type BatchConfig struct {
	// Enabled turns the batcher on for streaming Run requests.
	Enabled bool
	// MaxRequests caps the members of one batch (default
	// DefaultBatchMaxRequests).
	MaxRequests int
}

// batchKey groups compatible queued requests: same indexes (and so the same
// join shape), same resolved algorithm, metric and fan-out. Pair-level
// predicates and Limit may differ — the envelope covers them.
type batchKey struct {
	q, p   *rcj.Index
	alg    rcj.Algorithm
	metric rcj.Metric
	par    int
}

// batchable reports whether a query may join a batch: valid, streaming
// (TopK rankings cannot share a traversal without giving up their dynamic
// bound — the result cache serves those).
func batchable(qry rcj.Query) bool {
	return qry.TopK == 0 && qry.Validate() == nil
}

// member is one request riding a batch: the demultiplexer sends filtered
// pair slices into ch; the member's iterator drains them.
type member struct {
	qry      rcj.Query
	statsOut *rcj.Stats
	ch       chan []rcj.Pair
	err      error // terminal error; written before ch closes
	emitted  int64
	enqueued time.Time
	dead     atomic.Bool
	deadCh   chan struct{} // closed when the consumer abandons the stream
	killOnce sync.Once
}

func newMember(qry rcj.Query, stats *rcj.Stats) *member {
	return &member{
		qry:      qry,
		statsOut: stats,
		ch:       make(chan []rcj.Pair, 16),
		deadCh:   make(chan struct{}),
		enqueued: time.Now(),
	}
}

// kill marks the member abandoned, unblocking any demux send aimed at it.
func (m *member) kill() {
	m.killOnce.Do(func() {
		m.dead.Store(true)
		close(m.deadCh)
	})
}

// send delivers one filtered slice unless the consumer has abandoned the
// stream, reporting whether the member took it.
func (m *member) send(b []rcj.Pair) bool {
	select {
	case m.ch <- b:
		return true
	case <-m.deadCh:
		return false
	}
}

// seq is the member's single-use result iterator: drain demuxed slices,
// surface the batch's terminal error (written before the channel closed),
// and mark the member dead on any exit so the demux never blocks on it.
func (m *member) seq(ctx context.Context) iter.Seq2[rcj.Pair, error] {
	return func(yield func(rcj.Pair, error) bool) {
		defer m.kill()
		for {
			select {
			case b, ok := <-m.ch:
				if !ok {
					if m.err != nil {
						yield(rcj.Pair{}, m.err)
					}
					return
				}
				for _, pr := range b {
					if !yield(pr, nil) {
						return
					}
				}
			case <-ctx.Done():
				yield(rcj.Pair{}, ctx.Err())
				return
			}
		}
	}
}

// batch is one shared traversal job. It owns exactly one queue waiter; the
// leader goroutine (leadBatch) waits for the waiter's grant, seals the
// member list, and runs the envelope traversal.
type batch struct {
	key       batchKey
	w         *waiter
	granted   chan struct{} // closed once the batch owns a slot and is sealed
	abandoned chan struct{} // closed if every member detached before the grant
	members   []*member
	live      int  // members not yet detached pre-grant
	sealed    bool // no further joins; set at grant or full abandonment
}

// runBatched is the batching front of Run. handled=false means the
// caller should fall through to the solo admit path (batching disabled,
// query not batchable, or a free slot makes solo execution strictly
// better); otherwise seq/err are the request's outcome.
func (s *Scheduler) runBatched(ctx context.Context, q, p *rcj.Index, qry rcj.Query, stats *rcj.Stats) (seq iter.Seq2[rcj.Pair, error], err error, handled bool) {
	if !s.cfg.Batch.Enabled || !batchable(qry) {
		return nil, nil, false
	}
	key := batchKey{q: q, p: p, alg: qry.EffectiveAlgorithm(), metric: qry.Metric, par: qry.Parallelism}
	maxReq := s.cfg.Batch.MaxRequests
	if maxReq <= 0 {
		maxReq = DefaultBatchMaxRequests
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectedDraining.Add(1)
		return nil, ErrDraining, true
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, err, true
	}
	if b, ok := s.batches[key]; ok && !b.sealed && len(b.members) < maxReq {
		// An open batch for this shape is already queued: ride it. The
		// member consumes no queue capacity of its own.
		m := newMember(qry, stats)
		b.members = append(b.members, m)
		b.live++
		s.mu.Unlock()
		seq, err := s.waitBatch(ctx, b, m)
		return seq, err, true
	}
	if s.running < s.cfg.MaxConcurrent {
		// A slot is free: solo execution serves this request with its own
		// exact pushdown, no envelope overhead, zero added latency.
		s.mu.Unlock()
		return nil, nil, false
	}
	if s.cfg.MaxQueue >= 0 && s.queue.Len() >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rejectedOverload.Add(1)
		return nil, ErrOverloaded, true
	}
	m := newMember(qry, stats)
	b := &batch{
		key:       key,
		w:         &waiter{ready: make(chan struct{})},
		granted:   make(chan struct{}),
		abandoned: make(chan struct{}),
		members:   []*member{m},
		live:      1,
	}
	b.w.el = s.queue.PushBack(b.w)
	s.batches[key] = b
	s.mu.Unlock()
	go s.leadBatch(b)
	sq, err := s.waitBatch(ctx, b, m)
	return sq, err, true
}

// waitBatch blocks one member until its batch is granted a slot, its
// context ends, or QueueTimeout elapses — the same admission contract as
// Acquire, surfaced before any result bytes.
func (s *Scheduler) waitBatch(ctx context.Context, b *batch, m *member) (iter.Seq2[rcj.Pair, error], error) {
	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-b.granted:
		return m.seq(ctx), nil
	case <-ctx.Done():
		s.detachMember(b, m)
		return nil, ctx.Err()
	case <-timeout:
		s.detachMember(b, m)
		s.rejectedQueueTimeout.Add(1)
		return nil, ErrQueueTimeout
	}
}

// detachMember removes a member that gave up before the grant. The last
// live member to detach abandons the whole batch: its queue waiter is
// removed (or, if the grant raced ahead, the leader finds no live members
// and releases the slot immediately).
func (s *Scheduler) detachMember(b *batch, m *member) {
	m.kill()
	s.mu.Lock()
	if b.sealed {
		s.mu.Unlock()
		return
	}
	b.live--
	if b.live > 0 {
		s.mu.Unlock()
		return
	}
	b.sealed = true
	delete(s.batches, b.key)
	if b.w.el != nil {
		s.queue.Remove(b.w.el)
		b.w.el = nil
		s.mu.Unlock()
		close(b.abandoned)
		return
	}
	// Granted concurrently: leadBatch owns the slot and will release it.
	s.mu.Unlock()
}

// leadBatch is the batch's leader goroutine: wait for the queue grant, seal
// the member list so no request joins a running traversal, then execute.
func (s *Scheduler) leadBatch(b *batch) {
	select {
	case <-b.w.ready:
	case <-b.abandoned:
		return
	}
	s.mu.Lock()
	b.sealed = true
	delete(s.batches, b.key)
	s.mu.Unlock()
	close(b.granted)
	s.executeBatch(b)
}

// executeBatch runs one envelope traversal for the batch's live members and
// demultiplexes each verification batch to their streams, then finalizes
// every member (stats, terminal error, channel close) and releases the
// batch's single slot.
func (s *Scheduler) executeBatch(b *batch) {
	defer s.release()
	live := b.members[:0:0]
	for _, m := range b.members {
		if !m.dead.Load() {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return
	}
	now := time.Now()
	for _, m := range live {
		s.admitted.Add(1)
		s.queueWait.observe(now.Sub(m.enqueued))
	}
	if len(live) > 1 {
		s.batchesRun.Add(1)
		s.batchedReqs.Add(int64(len(live)))
	}

	qs := make([]rcj.Query, len(live))
	for i, m := range live {
		qs[i] = m.qry
	}
	env := rcj.BatchEnvelope(qs)
	var st rcj.Stats
	env.Stats = &st

	// The traversal serves several requests, so no single request context
	// governs it: it runs under the scheduler's JoinTimeout and is cancelled
	// once the last member has left — a traversal nobody reads must not hold
	// the slot until its next non-empty slice, which may never come.
	jctx, cancel := context.WithCancel(context.Background())
	if s.cfg.JoinTimeout > 0 {
		var stop context.CancelFunc
		jctx, stop = context.WithTimeout(jctx, s.cfg.JoinTimeout)
		defer stop()
	}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for _, m := range live {
			select {
			case <-m.deadCh:
			case <-jctx.Done():
				return
			}
		}
		cancel()
	}()
	defer func() {
		cancel()
		<-watched
	}()

	// remaining[i] counts member i's Limit budget down; -1 = unlimited,
	// 0 = done.
	remaining := make([]int, len(live))
	for i, m := range live {
		remaining[i] = -1
		if m.qry.Limit > 0 {
			remaining[i] = m.qry.Limit
		}
	}

	seq := s.eng.RunBatches(jctx, b.key.q, b.key.p, env)
	start := time.Now()
	var batchErr error
	for pairs, err := range seq {
		if err != nil {
			batchErr = err
			break
		}
		anyWaiting := false
		for i, m := range live {
			if m.dead.Load() || remaining[i] == 0 {
				continue
			}
			out := filterPairs(m.qry, pairs, remaining[i])
			if len(out) > 0 {
				if !m.send(out) {
					continue // abandoned mid-stream; skip from now on
				}
				m.emitted += int64(len(out))
				if remaining[i] > 0 {
					remaining[i] -= len(out)
				}
			}
			if remaining[i] != 0 {
				anyWaiting = true
			}
		}
		if !anyWaiting {
			break // every member done or gone: stop the traversal early
		}
	}
	elapsed := time.Since(start)

	// One traversal, one aggregation: the tagged buffer counters enter the
	// scheduler sums exactly once, keeping the pool-sum invariant exact.
	s.bufAccesses.Add(st.NodeAccesses)
	s.bufHits.Add(st.NodeAccesses - st.PageFaults)
	s.bufMisses.Add(st.PageFaults)
	s.boundKilled.Add(st.BoundKilledCandidates)
	for _, m := range live {
		s.joinLatency.observe(elapsed)
		mst := st
		mst.Results = m.emitted
		if m.statsOut != nil {
			*m.statsOut = mst
		}
		m.err = batchErr
		s.pairsEmitted.Add(m.emitted)
		if batchErr != nil {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
		close(m.ch)
	}
}

// filterPairs selects the pairs of one demuxed slice a member should see:
// its own predicates, capped at its remaining Limit budget (cap < 0 means
// unlimited).
func filterPairs(qry rcj.Query, pairs []rcj.Pair, cap int) []rcj.Pair {
	out := make([]rcj.Pair, 0, len(pairs))
	for _, pr := range pairs {
		if cap == 0 {
			break
		}
		if !qry.Matches(pr) {
			continue
		}
		out = append(out, pr)
		if cap > 0 {
			cap--
		}
	}
	return out
}
