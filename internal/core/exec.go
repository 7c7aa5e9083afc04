package core

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file is the join executor: one pipeline with two switches. The outer
// loop (leaf order, sampling, parallelism) hands TQ leaves to processLeaf,
// sequentially or from a worker pool (parallel.go), and every leaf streams
// through the same stages:
//
//	filter (bulkFilter) → candidateBatch → verify (both trees) → deliver
//
// The paper's three index algorithms are two booleans on that pipeline.
// Batch granularity: INJ hands bulkFilter one query point at a time
// (Algorithm 7 on a one-point leaf is Algorithm 2), BIJ and OBJ the whole
// leaf, so a batch — the unit that is filtered, verified and delivered
// together — is a point or a leaf. Symmetric seeding: OBJ pre-seeds the
// filter with Lemma 5, BIJ and INJ do not. The Manhattan metric swaps two
// kernels (quadrant pruner, ball verifier; l1.go) and always batches per
// point. AlgBrute is the filter-free baseline (brute.go) on the same
// delivery. The whole pipeline is cancellable: the context is checked once
// per leaf, per batch, and per node read, so a cancelled join stops promptly
// without finishing the current traversal.

// execute runs the join under ctx.
func (j *joiner) execute(ctx context.Context) ([]Pair, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j.ctx = ctx
	j.predOrder = compilePredOrder(j.opts)
	if j.opts.hasPredicates() {
		j.shared = newRunShared(j.opts)
	}
	var err error
	switch {
	case j.opts.Algorithm == AlgBrute:
		err = j.runBrute()
	case j.opts.Parallelism > 1:
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
		// TopK runs cannot stream mid-join — a later, tighter pair may evict
		// an earlier one — so the ranking leaves as one final batch, in
		// ascending ranking order.
		j.batch = j.shared.topk.sorted()
		j.deliver()
	}
	return j.out, j.stats, err
}

// processLeaf runs the pipeline for one TQ leaf, cut into the algorithm's
// batches. It is the unit of work both the sequential loop and the parallel
// workers schedule.
func (j *joiner) processLeaf(points []rtree.PointEntry) error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	j.stats.OuterLeaves++
	if j.opts.Metric != MetricL1 && (j.opts.Algorithm == AlgBIJ || j.opts.Algorithm == AlgOBJ) {
		return j.joinBatch(points)
	}
	for i := range points {
		if err := j.ctxErr(); err != nil {
			return err
		}
		if err := j.joinBatch(points[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// joinBatch computes the RCJ pairs of one batch of query points: filter,
// build rings, verify against both trees, deliver survivors. Verification
// follows the batch's filter synchronously, so a run sees the buffer-access
// interleaving of the paper's sequential formulation. The incremental
// Monitor calls it with each newly inserted point.
func (j *joiner) joinBatch(points []rtree.PointEntry) error {
	var (
		queries []bulkQuery
		err     error
	)
	ring := geom.EnclosingCircle
	if j.opts.Metric == MetricL1 {
		ring = l1Ring
		queries, err = j.filterL1(points[0])
	} else {
		queries, err = j.bulkFilter(points, j.opts.Algorithm == AlgOBJ)
	}
	if err != nil {
		return err
	}
	return j.verifyAndEmit(candidateBatch(queries, ring))
}

// verifyAndEmit is the tail of the pipeline: one candidate batch is verified
// against both trees and the survivors are delivered.
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
	j.deliver()
	return nil
}

// sameTree reports whether both join inputs are the identical tree, in which
// case one verification pass covers both datasets.
func (j *joiner) sameTree() bool {
	return j.tp == j.tq
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
