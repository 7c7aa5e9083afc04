package core

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file is the join executor. Options are compiled into a plan — the
// algorithm's filter stage plus the outer-loop strategy (leaf order,
// sampling, parallelism) — and the plan is driven over the TQ leaves either
// sequentially or by a worker pool (parallel.go). Every strategy streams
// through the same per-leaf pipeline:
//
//	filter (per point or bulk) → verify (both trees) → emit
//
// so INJ, BIJ and OBJ differ only in their filter stage (the Manhattan
// metric swaps the filter and the verifier, see l1.go), and the
// sequential/parallel paths differ only in who calls processLeaf. The whole
// pipeline is cancellable: the context is checked once per leaf, per query
// point, and per node read, so a cancelled join stops promptly without
// finishing the current traversal.

// filterStage generates the candidate batches of one TQ leaf, invoking sink
// once per batch. Batch granularity is the algorithm's verification unit:
// INJ yields one batch per query point (Algorithm 5), BIJ/OBJ one batch per
// leaf (Algorithm 6). sink runs the verify and emit stages synchronously, so
// a stage sees the buffer-access interleaving of the paper's sequential
// formulation.
type filterStage func(j *joiner, leafPoints []rtree.PointEntry, sink func([]*candidate) error) error

// plan is one compiled execution strategy.
type plan struct {
	filter      filterStage
	parallelism int
}

// compile translates Options into an executable plan.
func compile(opts Options) plan {
	p := plan{parallelism: opts.Parallelism}
	switch {
	case opts.Metric == MetricL1:
		p.filter = l1FilterStage
	case opts.Algorithm == AlgBIJ:
		p.filter = bulkFilterStage(false)
	case opts.Algorithm == AlgOBJ:
		p.filter = bulkFilterStage(true)
	default:
		p.filter = injFilterStage
	}
	return p
}

// execute compiles and runs the join under ctx.
func (j *joiner) execute(ctx context.Context) ([]Pair, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j.ctx = ctx
	j.plan = compile(j.opts)
	j.predOrder = compilePredOrder(j.opts)
	if j.opts.hasPredicates() {
		j.shared = newRunShared(j.opts)
	}
	var err error
	switch {
	case j.opts.Algorithm == AlgBrute:
		err = j.runBrute()
	case j.plan.parallelism > 1:
		err = j.runParallel()
	default:
		err = j.forEachQLeaf(func(n *rtree.Node) error {
			return j.processLeaf(n.Points())
		})
	}
	if errors.Is(err, errLimitReached) {
		// Limit satisfied: the early stop is a clean completion.
		err = nil
	}
	if err == nil && j.shared != nil && j.shared.topk != nil {
		j.flushTopK()
	}
	if err == nil {
		// AlgBrute emits without verification batches; flush its accumulated
		// survivors (and any TopK ranking) as one final batch.
		j.flushBatch()
	}
	return j.out, j.stats, err
}

// processLeaf runs the pipeline for one TQ leaf. It is the unit of work both
// the sequential loop and the parallel workers schedule.
func (j *joiner) processLeaf(points []rtree.PointEntry) error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	j.stats.OuterLeaves++
	return j.plan.filter(j, points, j.verifyAndEmit)
}

// verifyAndEmit is the tail of the pipeline: one candidate batch is verified
// against both trees and the survivors are emitted.
func (j *joiner) verifyAndEmit(cands []*candidate) error {
	j.stats.Candidates += int64(len(cands))
	j.boundBatch(cands)
	if !j.opts.SkipVerification {
		verify := j.verify
		if j.opts.Metric == MetricL1 {
			verify = j.verifyL1
		}
		if err := verify(j.tq, cands, sideQ); err != nil {
			return err
		}
		if !j.sameTree() {
			if err := verify(j.tp, cands, sideP); err != nil {
				return err
			}
		}
	}
	for _, c := range cands {
		if !c.alive {
			continue
		}
		if j.opts.SelfJoin && !j.keepSelfPair(c.pair.P, c.pair.Q) {
			continue
		}
		j.emit(c.pair)
	}
	j.flushBatch()
	return nil
}

// outerSkip compiles the Region window into an outer-traversal subtree
// filter, or nil when the pushdown does not apply. A candidate circle's
// center is the midpoint of a TQ point and a TP point, so the centers a TQ
// subtree can produce all lie in the midpoint rect of its MBR with TP's root
// MBR; when that rect misses the window, no pair from the subtree can pass
// admitPair and the subtree is skipped unread. Verification is unaffected —
// it runs against the full trees, and Ψ− pruner state is scoped to the query
// points actually filtered — so the result set is identical (the property
// suite sweeps this). Sampling runs keep the unpruned schedule: the cost
// estimator extrapolates from every k-th leaf of the *full* leaf list.
func (j *joiner) outerSkip() func(geom.Rect) bool {
	if j.opts.Region == nil || j.opts.LeafSampleEvery > 1 {
		return nil
	}
	root := j.tp.Root()
	if root == storage.InvalidPageID {
		return nil
	}
	n, err := j.tp.ReadNode(root)
	if err != nil {
		// The traversal proper will surface the read error; just don't prune.
		return nil
	}
	tp := n.MBR()
	window := *j.opts.Region
	return func(rect geom.Rect) bool {
		mid := geom.Rect{
			MinX: (rect.MinX + tp.MinX) / 2,
			MinY: (rect.MinY + tp.MinY) / 2,
			MaxX: (rect.MaxX + tp.MaxX) / 2,
			MaxY: (rect.MaxY + tp.MaxY) / 2,
		}
		return !mid.Intersects(window)
	}
}

// forEachQLeaf drives the sequential outer loop over TQ leaves: depth-first
// by default (Section 3.4's locality argument), by explicit page list when
// the order is shuffled or sampled.
func (j *joiner) forEachQLeaf(fn func(*rtree.Node) error) error {
	if !j.opts.RandomLeafOrder && j.opts.LeafSampleEvery <= 1 {
		skipped, err := rtree.VisitLeaves(j.tq, j.outerSkip(), func(_ storage.PageID, n *rtree.Node) error {
			return fn(n)
		})
		j.stats.NodesPruned += skipped
		return err
	}
	pages, err := j.outerLeafPages()
	if err != nil {
		return err
	}
	for _, id := range pages {
		n, err := j.tq.ReadNode(id)
		if err != nil {
			return err
		}
		if err := fn(n); err != nil {
			return err
		}
	}
	return nil
}

// outerLeafPages materializes the outer leaf schedule: all TQ leaf pages in
// depth-first order (Region-pruned when the pushdown applies), shuffled when
// the ablation asks for it, then sampled every k-th for the cost estimator.
func (j *joiner) outerLeafPages() ([]storage.PageID, error) {
	var pages []storage.PageID
	skipped, err := rtree.VisitLeaves(j.tq, j.outerSkip(), func(id storage.PageID, _ *rtree.Node) error {
		pages = append(pages, id)
		return nil
	})
	j.stats.NodesPruned += skipped
	if err != nil {
		return nil, err
	}
	if j.opts.RandomLeafOrder {
		rng := rand.New(rand.NewSource(j.opts.Seed))
		rng.Shuffle(len(pages), func(a, b int) { pages[a], pages[b] = pages[b], pages[a] })
	}
	if every := j.opts.LeafSampleEvery; every > 1 {
		sampled := pages[:0]
		for i, id := range pages {
			if i%every == 0 {
				sampled = append(sampled, id)
			}
		}
		pages = sampled
	}
	return pages, nil
}

// ctxDone returns the context's error if it has been cancelled, nil
// otherwise (including for a nil context).
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// ctxErr reports whether this run has been cancelled or stopped early by a
// satisfied Limit.
func (j *joiner) ctxErr() error {
	if err := ctxDone(j.ctx); err != nil {
		return err
	}
	if j.shared != nil && j.shared.stopped.Load() {
		return errLimitReached
	}
	return nil
}
