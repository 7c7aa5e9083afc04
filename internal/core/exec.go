package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file is the join executor: one pipeline with two switches, run to
// completion on the goroutine that called JoinContext. One outer walk
// (forEachQLeaf: leaf order, sampling) reads each TQ leaf once and hands it
// to processLeaf, and every leaf streams through the same stages:
//
//	filter (bulkFilter) → candidateBatch → verify (both trees) → deliver
//
// The paper's three index algorithms are two booleans on that pipeline.
// Batch granularity: INJ hands bulkFilter one query point at a time
// (Algorithm 7 on a one-point leaf is Algorithm 2), BIJ and OBJ the whole
// leaf, so a batch — the unit that is filtered, verified and delivered
// together — is a point or a leaf. Symmetric seeding: OBJ seeds the filter
// with Lemma 5 (per query point, on its first probe), BIJ and INJ do not.
// The Manhattan metric adds no stage, only three kernels inside them: the
// filter's regions (quadrants), its exact pair distance (L1Dist) and the
// verifier's exact sign (L1DiscSign; l1.go); it seeds nothing, so an L1
// OBJ batches as BIJ does. AlgBrute is the filter-free baseline
// (brute.go) and AlgGabriel the R-tree-free unconstrained join (gabriel.go),
// both on the same delivery. The whole pipeline is cancellable: the
// context is checked once per leaf, per batch, and per node read, so a
// cancelled join stops promptly without finishing the current traversal.

// execute runs the join under ctx.
func (j *joiner) execute(ctx context.Context) ([]Pair, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j.ctx = ctx
	if j.opts.Metric == MetricL1 && (j.opts.Algorithm == AlgBrute || j.opts.Algorithm == AlgGabriel) {
		// Both build and decide Euclidean rings only.
		return nil, j.stats, fmt.Errorf("core: %v is Euclidean only; an L1 join runs INJ, BIJ or OBJ", j.opts.Algorithm)
	}
	if j.opts.derivesRegionBound() {
		// The window bounds its own diameter: it runs as a bounded window,
		// which skips the window's far reflection, with the same pairs.
		d, err := RegionDiameter(j.tq, j.tp, *j.opts.Region)
		if err != nil {
			return nil, j.stats, err
		}
		if d > 0 && !math.IsInf(d, 1) {
			j.opts.MaxDiameter = d
		}
	}
	j.predOrder = compilePredOrder(j.opts)
	j.topk = newTopK(j.opts)
	held := j.takeScratch()
	var err error
	switch {
	case j.opts.Algorithm == AlgBrute:
		err = j.runBrute()
	case j.opts.Algorithm == AlgGabriel:
		err = j.runGabriel()
	default:
		err = j.forEachQLeaf()
	}
	if errors.Is(err, errLimitReached) {
		// Limit satisfied: the early stop is a clean completion.
		err = nil
	}
	if err == nil && j.topk != nil {
		// TopK runs cannot stream mid-join — a later, tighter pair may evict
		// an earlier one — so the ranking leaves as one final batch, in
		// ascending ranking order.
		j.batch = j.topk.h.sorted()
		j.deliver()
	}
	// Not deferred: a scratch a panic left mid-batch is not worth keeping.
	j.putScratch(held)
	return j.out, j.stats, err
}

// processLeaf runs the pipeline for one TQ leaf, cut into the algorithm's
// batches. The leaf's points are copied into the joiner's leafBuf:
// no stage keeps them past the call (the filter and candidateBatch copy what
// they keep), so one buffer serves every leaf.
func (j *joiner) processLeaf(n *rtree.Node) error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	j.stats.OuterLeaves++
	j.leafBuf = n.AppendPointsTo(j.leafBuf[:0])
	points := j.leafBuf
	if j.opts.Algorithm == AlgBIJ || j.opts.Algorithm == AlgOBJ {
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
// interleaving of the paper's sequential formulation.
func (j *joiner) joinBatch(points []rtree.PointEntry) error {
	queries, err := j.bulkFilter(points, j.opts.Algorithm == AlgOBJ && j.opts.Metric != MetricL1)
	if err != nil {
		return err
	}
	if j.filtered != nil {
		j.filtered(queries)
	}
	return j.verifyAndEmit(j.candidateBatch(queries))
}

// verifyAndEmit is the tail of the pipeline: one candidate batch is verified
// against both trees and the survivors are delivered. A self-join verifies
// each unordered pair once, in the orientation keepSelfPair emits: a valid
// pair is never pruned, so it passes the filter both ways, and the ring and
// every in-disc sign are symmetric in its endpoints.
func (j *joiner) verifyAndEmit(cands []*candidate) error {
	if j.opts.SelfJoin {
		kept := cands[:0]
		for _, c := range cands {
			if j.keepSelfPair(c.pair.P, c.pair.Q) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	j.stats.Candidates += int64(len(cands))
	if !j.opts.SkipVerification {
		if err := j.verifyBoth(cands); err != nil {
			return err
		}
	}
	for _, c := range cands {
		if c.alive {
			j.emit(c.pair)
		}
	}
	j.deliver()
	return nil
}

// verifyBoth verifies a candidate batch against TQ and then, unless it is
// the same tree, against TP.
func (j *joiner) verifyBoth(cands []*candidate) error {
	if err := j.verify(j.tq, cands, sideQ); err != nil {
		return err
	}
	if j.sameTree() {
		return nil
	}
	return j.verify(j.tp, cands, sideP)
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
// admitPair and the subtree is skipped unread. Under a static MaxDiameter
// the window also has a reach: both endpoints of an admitted pair lie within
// MaxDiameter/2 of its center, so a TQ subtree farther than that from the
// window is skipped too (widened by boundSlack, and absolutely at the
// rounding scale of the window's coordinates, which a rounded midpoint can
// move by an ulp). Verification is unaffected —
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
	reach := math.Inf(1)
	if j.opts.MaxDiameter > 0 {
		reach = j.opts.MaxDiameter/2*boundSlack + 0x1p-40*maxAbs(window)
	}
	return func(rect geom.Rect) bool {
		mid := geom.Rect{
			MinX: (rect.MinX + tp.MinX) / 2,
			MinY: (rect.MinY + tp.MinY) / 2,
			MaxX: (rect.MaxX + tp.MaxX) / 2,
			MaxY: (rect.MaxY + tp.MaxY) / 2,
		}
		return !mid.Intersects(window) || math.Sqrt(geom.RectMinDist2(rect, window)) > reach
	}
}

// forEachQLeaf is the outer walk over TQ leaves, reading each leaf once and
// handing it to processLeaf: depth-first by default (Section 3.4's locality
// argument), by explicit page list when the order is shuffled or sampled.
func (j *joiner) forEachQLeaf() error {
	if !j.opts.RandomLeafOrder && j.opts.LeafSampleEvery <= 1 {
		skipped, err := rtree.VisitLeaves(j.tq, j.outerSkip(), func(_ storage.PageID, n *rtree.Node) error {
			return j.processLeaf(n)
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
		if err := j.processLeaf(n); err != nil {
			return err
		}
	}
	return nil
}

// outerLeafPages materializes the outer leaf schedule of a shuffled or
// sampled walk: all TQ leaf pages in depth-first order (Region-pruned when
// the pushdown applies), shuffled when the ablation asks for it, then
// sampled every k-th for the cost estimator.
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
	if j.stopped {
		return errLimitReached
	}
	return nil
}
