package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/rtree"
)

// This file is the parallel execution strategy of the executor: the caller
// runs the sequential strategy's outer walk (forEachQLeaf) and hands each
// TQ leaf, already read, to a worker pool, each worker running the same
// per-leaf pipeline (processLeaf) with private state. Every outer leaf is
// read once, and the first worker starts as soon as the walk reaches the
// first leaf. Indexes are read-only during a join, the buffer pool is safe
// for concurrent use, and a node read on one goroutine may be processed on
// another (SpatialIndex), so workers share all three; only result delivery
// is synchronized (deliver, core.go). The result SET and every count but
// faults are identical to the sequential run; result ORDER is not
// deterministic.
//
// Error handling: the first failure — a worker's, a node read of the walk's,
// an external cancellation or a satisfied Limit — cancels a run-scoped
// context. Workers stop at the next leaf, the walk stops at the next leaf it
// would hand out, and the first error is the one returned — later errors
// are discarded, never overwriting the first.

// runParallel executes the INJ/BIJ/OBJ outer loop with opts.Parallelism
// workers.
func (j *joiner) runParallel() error {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		work     = make(chan *rtree.Node)
		workers  = make([]*joiner, j.opts.Parallelism)
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	for w := range workers {
		// Each worker is an independent joiner delivering through the root's
		// locked sinks (parent). The predicate state (TopK heap and its
		// dynamic bound, Limit countdown) is shared, so one worker's
		// tightened bound prunes every worker's traversal.
		worker := &joiner{tq: j.tq, tp: j.tp, opts: j.opts, ctx: ctx, shared: j.shared, predOrder: j.predOrder, parent: j}
		workers[w] = worker
		wg.Add(1)
		go func(worker *joiner) {
			defer wg.Done()
			for n := range work {
				if err := worker.processLeaf(n); err != nil {
					fail(err)
					return
				}
			}
		}(worker)
	}

	err := j.forEachQLeaf(func(n *rtree.Node) error {
		select {
		case work <- n:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		// A read error of the walk's own, or the cancellation it stopped
		// at; fail keeps whichever error came first.
		fail(err)
	}
	close(work)
	wg.Wait()

	// Merge worker statistics even on failure, so partial work is accounted.
	for _, w := range workers {
		j.stats.Candidates += w.stats.Candidates
		j.stats.Results += w.stats.Results
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
