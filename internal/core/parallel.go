package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/storage"
)

// This file is the parallel execution strategy of the executor: TQ leaves
// are distributed over a worker pool, each worker running the same per-leaf
// pipeline (processLeaf) as the sequential strategy with private state.
// Indexes are read-only during a join and the buffer pool is safe for
// concurrent use, so workers share both; only result delivery is
// synchronized (deliver, core.go). The result SET is identical to the
// sequential run; result ORDER is not deterministic.
//
// Error handling: the first failure (or an external cancellation) cancels a
// run-scoped context. Workers stop at the next leaf, the feeder stops
// handing out pages, and the first error is the one returned — later errors
// are discarded, never overwriting the first.

// runParallel executes the INJ/BIJ/OBJ outer loop with opts.Parallelism
// workers.
func (j *joiner) runParallel() error {
	pages, err := j.outerLeafPages()
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		work     = make(chan storage.PageID)
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
			for page := range work {
				n, err := j.tq.ReadNode(page)
				if err != nil {
					fail(err)
					return
				}
				if err := worker.processLeaf(n.Points()); err != nil {
					fail(err)
					return
				}
			}
		}(worker)
	}

feed:
	for _, page := range pages {
		select {
		case work <- page:
		case <-ctx.Done():
			break feed
		}
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
		// A satisfied Limit stops the feeder and workers through the same
		// cancellation path as a failure; it is a clean completion.
		if errors.Is(firstErr, errLimitReached) {
			return nil
		}
		return firstErr
	}
	return ctxDone(j.ctx)
}
