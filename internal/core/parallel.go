package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/rtree"
)

// This file is the parallel execution strategy of the executor: the run's
// goroutine — the one that called JoinContext — runs the sequential
// strategy's outer walk (forEachQLeaf) and hands each TQ leaf, already
// read, to a worker pool, each worker running the same per-leaf pipeline
// (processLeaf) with private state and recycled scratch. Every outer leaf is
// read once, and the first worker starts as soon as the walk reaches the
// first leaf. Indexes are read-only during a join, the buffer pool is safe
// for concurrent use, and a node read on one goroutine may be processed on
// another (SpatialIndex), so workers share all three. Results take one
// channel back: a worker sends each finished batch whole, and the run's
// goroutine, between handing out leaves and after the walk until every
// worker has exited, delivers it (deliver, core.go) — so the sinks are only
// ever touched on the caller's goroutine and need no lock. The result SET
// and every count but faults are identical to the sequential run; result
// ORDER is not deterministic.
//
// Error handling: the first failure — a worker's, a node read of the walk's,
// an external cancellation or a satisfied Limit — cancels a run-scoped
// context. Workers stop at the next leaf, the walk stops at the next leaf it
// would hand out, and the first error is the one returned — later errors
// are discarded, never overwriting the first. A worker never drops a batch
// it has finished (a Limit run has already counted its pairs): the run's
// goroutine drains the channel until the last worker is gone. A panic out
// of a sink on the run's goroutine cancels the workers and waits for them
// before it propagates.

// handoff is the channel pair between a run's workers and its goroutine.
// Both hold one slot per worker: a worker can finish a batch and go on to
// its next leaf while the run's goroutine is reading a node or inside a
// sink, and every delivered slice can wait for a worker to reuse it.
type handoff struct {
	batches chan []Pair // finished batches; a nil batch is a worker's exit
	free    chan []Pair // delivered batches' slices, back to the workers
}

// send hands a worker's finished batch to the run's goroutine and returns
// a recycled slice for the next one. It blocks until there is room: the run's
// goroutine receives until every worker has exited.
func (h *handoff) send(batch []Pair) []Pair {
	h.batches <- batch
	select {
	case b := <-h.free:
		return b
	default:
		return nil
	}
}

// runParallel executes the INJ/BIJ/OBJ outer loop with opts.Parallelism
// workers.
func (j *joiner) runParallel() error {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()

	var (
		work     = make(chan *rtree.Node)
		h        = &handoff{batches: make(chan []Pair, j.opts.Parallelism), free: make(chan []Pair, j.opts.Parallelism)}
		workers  = make([]*joiner, j.opts.Parallelism)
		running  = len(workers)
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// take receives one message: a batch is delivered on this goroutine, a
	// nil one retires a worker.
	take := func(batch []Pair) {
		if batch == nil {
			running--
			return
		}
		j.batch = batch
		j.deliver()
		select {
		case h.free <- j.batch:
		default:
		}
		j.batch = nil
	}
	walking := true
	defer func() {
		// Reached with workers still running only when a sink panicked:
		// stop them and wait, discarding what they still send.
		if running == 0 {
			return
		}
		cancel()
		if walking {
			close(work)
		}
		for running > 0 {
			if <-h.batches == nil {
				running--
			}
		}
	}()

	for w := range workers {
		// Each worker is an independent joiner handing its batches to this
		// goroutine. The predicate state (TopK heap and its dynamic bound,
		// Limit countdown) is shared, so one worker's tightened bound prunes
		// every worker's traversal.
		worker := &joiner{tq: j.tq, tp: j.tp, opts: j.opts, ctx: ctx, shared: j.shared, predOrder: j.predOrder, handoff: h}
		workers[w] = worker
		go func(worker *joiner) {
			held := worker.takeScratch()
			defer func() {
				worker.putScratch(held)
				h.batches <- nil
			}()
			for n := range work {
				if err := worker.processLeaf(n); err != nil {
					fail(err)
					return
				}
			}
		}(worker)
	}

	err := j.forEachQLeaf(func(n *rtree.Node) error {
		for {
			select {
			case work <- n:
				return nil
			case batch := <-h.batches:
				take(batch)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	if err != nil {
		// A read error of the walk's own, or the cancellation it stopped
		// at; fail keeps whichever error came first.
		fail(err)
	}
	close(work)
	walking = false
	for running > 0 {
		take(<-h.batches)
	}

	// Merge worker statistics even on failure, so partial work is accounted.
	// Results are counted where they are delivered, on this joiner.
	for _, w := range workers {
		j.stats.Candidates += w.stats.Candidates
		j.stats.FilterHeapPops += w.stats.FilterHeapPops
		j.stats.VerifiedNodes += w.stats.VerifiedNodes
		j.stats.OuterLeaves += w.stats.OuterLeaves
		j.stats.NodesPruned += w.stats.NodesPruned
		j.stats.BoundKilledCandidates += w.stats.BoundKilledCandidates
	}
	if firstErr != nil {
		// A satisfied Limit stops the walk and the workers through the same
		// cancellation path as a failure; it is a clean completion.
		if errors.Is(firstErr, errLimitReached) {
			return nil
		}
		return firstErr
	}
	return ctxDone(j.ctx)
}
