package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file implements the filter step. The paper states it twice — the
// per-point filter of Algorithm 2 and the bulk filter of Algorithm 7 — but
// Algorithm 7 on a one-point leaf IS Algorithm 2 (the centroid is the point,
// every heap key is the point's own distance, "every query prunes it" is
// "the query prunes it"), so there is one traversal, bulkFilter: it retrieves
// from TP the candidate points that may form RCJ pairs with the query
// point(s), pruning with the Ψ− half-plane regions of Lemmas 1 and 3 (and,
// for a Euclidean OBJ, Lemma 5), or under the Manhattan metric with the
// quadrants of l1.go. Per (point, query) pair the order of work is: the
// squared diameter bound, if any; then the query point's pruners, seeded
// with its Lemma-5 siblings on its first probe; then the exact bound and
// the query predicates.

// filterKey is what the filter's priority queue sifts: the (squared)
// distance from the reference location, whether the entry is an indexed
// point or an unexpanded TP subtree, and the index of its payload in the
// heap's point or node slab. 16 bytes, so a sift moves a quarter of what a
// whole item would.
type filterKey struct {
	dist2   float64
	idx     int32
	isPoint bool
}

// liveSpan is a run of query-point indexes in the joiner's live arena: the
// query points of the batch whose pruners did not contain the entry's
// enclosing subtree when it was expanded, in batch order (see bulkFilter).
type liveSpan struct {
	off, n int32
}

// deadMark flags a listed query point as dead for the entry's subtree by
// the Region window alone. Deadness is inherited — a child's midpoint rect
// with the query point lies inside its parent's, in floating point too — so
// the mark spares every descendant the window test. The index is
// qi &^ deadMark.
const deadMark = math.MinInt32

// filterNode is the payload of an unexpanded subtree: its page, its MBR
// (empty for the root) and the query points still live for it.
type filterNode struct {
	page storage.PageID
	rect geom.Rect
	live liveSpan
}

// filterPoint is the payload of an indexed point: the point and the query
// points still live for the leaf it came from.
type filterPoint struct {
	point rtree.PointEntry
	live  liveSpan
}

// filterHeap is a min-heap of filterKey by distance, points before subtrees
// at equal keys, over payload slabs that only grow during one traversal
// (reset empties them). It is hand-rolled rather than built on
// container/heap: the interface indirection there boxes every pushed item
// into a heap allocation, and the filter pushes one item per leaf point
// touched — the dominant allocation of a warm join. The sift procedures
// mirror container/heap's exactly and the payload index rides along
// uncompared, so the pop order, tie handling included, is that of a heap
// of whole items (TestFilterHeapPopOrder), which every pinned count
// depends on.
type filterHeap struct {
	keys   filterKeys
	nodes  []filterNode
	points []filterPoint
}

type filterKeys []filterKey

func (h *filterHeap) reset() {
	h.keys, h.nodes, h.points = h.keys[:0], h.nodes[:0], h.points[:0]
}

func (s filterKeys) less(i, j int) bool {
	if s[i].dist2 != s[j].dist2 {
		return s[i].dist2 < s[j].dist2
	}
	return s[i].isPoint && !s[j].isPoint
}

// pushNode queues a subtree keyed at dist2.
func (h *filterHeap) pushNode(dist2 float64, page storage.PageID, rect geom.Rect, live liveSpan) {
	h.nodes = append(h.nodes, filterNode{page: page, rect: rect, live: live})
	h.push(filterKey{dist2: dist2, idx: int32(len(h.nodes) - 1)})
}

// pushPoint queues an indexed point keyed at dist2.
func (h *filterHeap) pushPoint(dist2 float64, p rtree.PointEntry, live liveSpan) {
	h.points = append(h.points, filterPoint{point: p, live: live})
	h.push(filterKey{dist2: dist2, idx: int32(len(h.points) - 1), isPoint: true})
}

func (h *filterHeap) push(k filterKey) {
	h.keys = append(h.keys, k)
	s := h.keys
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the least key; its payload is h.points[k.idx] or
// h.nodes[k.idx] by k.isPoint, valid until the next reset.
func (h *filterHeap) pop() filterKey {
	s := h.keys
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	k := s[n]
	h.keys = s[:n]
	return k
}

// pushLeafPoints expands a leaf node onto the heap: one pass over the
// coordinate columns with the squared distance from ref computed inline —
// no per-entry struct reads, no interface boxing. A point whose squared
// MINDIST to reach exceeds limit2 is not queued; an unbounded batch
// (limit2 +Inf) keeps a loop without the test, which costs a full join a
// few per cent.
func (h *filterHeap) pushLeafPoints(n *rtree.Node, ref geom.Point, live liveSpan, reach geom.Rect, limit2 float64) {
	xs, ys := n.Xs, n.Ys
	if math.IsInf(limit2, 1) {
		for i, id := range n.IDs {
			dx, dy := ref.X-xs[i], ref.Y-ys[i]
			h.pushPoint(dx*dx+dy*dy, rtree.PointEntry{P: geom.Point{X: xs[i], Y: ys[i]}, ID: id}, live)
		}
		return
	}
	for i, id := range n.IDs {
		p := geom.Point{X: xs[i], Y: ys[i]}
		if reach.MinDist2(p) > limit2 {
			continue
		}
		dx, dy := ref.X-p.X, ref.Y-p.Y
		h.pushPoint(dx*dx+dy*dy, rtree.PointEntry{P: p, ID: id}, live)
	}
}

// pushChildren expands an internal node onto the heap keyed by MINDIST from
// (the point) ref, skipping each child farther than limit from reach; it
// returns how many it skipped.
func (h *filterHeap) pushChildren(n *rtree.Node, ref geom.Point, live liveSpan, reach geom.Rect, limit float64) int64 {
	skipped := int64(0)
	for _, e := range n.Children {
		if math.Sqrt(geom.RectMinDist2(e.MBR, reach)) > limit {
			skipped++
			continue
		}
		h.pushNode(e.MBR.MinDist2(ref), e.Child, e.MBR, live)
	}
	return skipped
}

// bulkQuery is the per-point state of the filter: the query point, its
// accumulated pruning regions — half-planes in pruners, or under the
// Manhattan metric quadrants in l1, the other set staying empty — and its
// candidate set q.S. seeded reports whether the Lemma-5 sibling
// half-planes are in pruners yet (always true without symmetric pruning,
// so always under L1). bulkFilter picks the set at each probe and add from
// one flag per run (l1), not through a type parameter, whose method calls
// go through a dictionary, nor a helper method, which with its two calls is
// over the inliner's budget: either would cost every Euclidean probe an
// extra call.
type bulkQuery struct {
	q       rtree.PointEntry
	pruners geom.PrunerSet
	l1      l1Pruners
	cands   []rtree.PointEntry
	seeded  bool
}

// seed installs Lemma 5's half-planes Ψ−(q, q') for every leaf sibling q'
// of the query point; strict, so a sibling that is itself a candidate
// (self-joins), lying on its own boundary line, is not pruned. The filter
// seeds a query point on its first failed probe — an unseeded set is empty,
// since discoveries follow probes — and probes again: every probe sees the
// set eager seeding built, a query point the bound never admits pays
// nothing, and the call, with the register spills it forces, stays off the
// pruned path. Out of line for the same reason.
//
//go:noinline
func (bq *bulkQuery) seed(siblings []rtree.PointEntry) {
	bq.seeded = true
	for _, other := range siblings {
		if other.ID != bq.q.ID {
			bq.pruners.AddStrict(bq.q.P, other.P)
		}
	}
}

// resetQueries returns the joiner's per-query filter state, recycled for the
// given query points: the pruner sets and candidate slices keep their
// capacity, so a steady-state batch allocates nothing here. The previous
// batch was fully drained before this call (candidateBatch copies the
// candidates out), so clobbering it is safe. Under symmetric pruning every
// query point starts unseeded.
func (j *joiner) resetQueries(points []rtree.PointEntry, symmetric bool) []bulkQuery {
	queries := j.bulkScratch
	if cap(queries) < len(points) {
		queries = make([]bulkQuery, len(points))
	} else {
		queries = queries[:len(points)]
	}
	j.bulkScratch = queries
	for i, q := range points {
		queries[i].q = q
		queries[i].pruners.Reset()
		queries[i].l1 = queries[i].l1[:0]
		queries[i].cands = queries[i].cands[:0]
		queries[i].seeded = !symmetric
	}
	return queries
}

// candidateBatch wraps one filter call's surviving points into verification
// candidates with their enclosing rings — the one batch builder behind every
// filter batch (INJ, BIJ, OBJ), under the run's metric's two-point ball.
// One backing array serves the whole batch instead of a heap allocation per
// candidate pair; both it and the returned slice are joiner scratch, valid
// until the next call (verifyAndEmit copies out the pairs it delivers).
func (j *joiner) candidateBatch(queries []bulkQuery) []*candidate {
	ring := geom.EnclosingCircle
	if j.opts.Metric == MetricL1 {
		ring = l1Ring
	}
	total := 0
	for i := range queries {
		total += len(queries[i].cands)
	}
	if cap(j.candBacking) < total {
		j.candBacking = make([]candidate, 0, total)
		j.cands = make([]*candidate, 0, total)
	}
	backing, cands := j.candBacking[:0], j.cands[:0]
	for i := range queries {
		bq := &queries[i]
		for _, p := range bq.cands {
			backing = append(backing, candidate{
				pair:  Pair{P: p, Q: bq.q, Circle: ring(p.P, bq.q.P)},
				alive: true,
			})
			cands = append(cands, &backing[len(backing)-1])
		}
	}
	return cands
}

// bulkFilter is Algorithm 7, and on a one-point slice Algorithm 2: it
// filters the given query points (a whole TQ leaf under BIJ/OBJ, one point
// under INJ) concurrently. TP is traversed once in ascending distance from
// the points' centroid; an entry is discarded only when every query point
// prunes it (line 7), and a surviving point is added to the candidate set of
// exactly those query points that cannot prune it (lines 14–16), installing
// itself as a pruner there. For one point that is incremental
// nearest-neighbour order from the point itself, maximizing the pruning
// power of the earliest discoveries.
//
// Every queued entry carries the query points still live for it (a
// liveSpan into j.live; the root's holds the whole batch). When a subtree
// is expanded under no diameter bound, the rect test walks only its
// parent's live query points and lists for its children the ones whose
// pruners do not contain its MBR; a popped point is probed only by its
// leaf's list. That drops no work the unlisted probes would have done: a
// half-plane containing an MBR contains everything below it (Lemma 3 —
// exactly so in floating point, since the rect test evaluates the same
// rounded functional at the MBR's maximizing corner, and every child MBR
// and point lies inside its parent entry's MBR), and pruner sets only grow
// during a call. A query point dead for a subtree by predicate alone (the
// Region window) stays listed, since a point outside the window still
// prunes, and marked (deadMark), so no descendant tests the window again.
// The list decides nothing else — a query point is seeded in the rect test
// only while the subtree's fate is undecided, and a subtree pruned for
// every listed query point is credited to the pushdown only if the
// unlisted ones are dead for it by predicate too — so every count equals
// that of the list-free traversal. Under a bound the rect test keeps its
// early exit and the children inherit the parent's list: the bound kills
// most subtrees long before a list would pay for itself.
//
// With symmetric pruning (OBJ, Lemma 5), each query point's pruner set holds
// Ψ−(q, q') for every sibling q' in the leaf (bulkQuery.seed), so even an
// empty candidate set shrinks the search space.
//
// Under a diameter bound (a static MaxDiameter, a window's derived one or
// TopK's dynamic one) the batch queues only what the bound can reach: no
// leaf point whose squared MINDIST to the batch's MBR exceeds squaredBound,
// and no child whose MBR lies farther than bound·boundSlack from it (the
// rect test's comparison), each skipped child credited to the pushdown as
// the stop rule credits what it leaves. Every query point lies in the MBR
// and rounding a coordinate difference is monotone, so a skipped entry is
// one every query point's own test would reject, and the bound only
// tightens, so it would still be rejected when popped. Keys stay the
// distance from the centroid: only the pop count falls. A popped point then
// meets each query point's bound (squaredBound) before its pruners, so a
// bounded batch scans and seeds only the query points its bound admits.
//
// For self-joins a query point is itself present in TP; it is skipped (a
// point forms no pair with itself and its degenerate pruning region would
// annihilate the search).
//
// Under the Manhattan metric the traversal is the same: keys, the stop
// rule, the squared pre-test and rectDead stay Euclidean (sound for an L1
// bound, since ‖v‖₂ ≤ ‖v‖₁; see l1.go), the regions are quadrants, and the
// exact pair distance handed to the predicates is L1Dist. There is no
// symmetric pruning (the caller passes symmetric false; l1.go says why).
//
// The returned slice is scratch owned by the joiner, valid until the next
// filter call.
func (j *joiner) bulkFilter(leafPoints []rtree.PointEntry, symmetric bool) ([]bulkQuery, error) {
	if len(leafPoints) == 0 || j.tp.Root() == storage.InvalidPageID {
		return nil, nil
	}
	queries := j.resetQueries(leafPoints, symmetric)
	var centroid geom.Point
	mbr := geom.EmptyRect()
	for _, q := range leafPoints {
		centroid.X += q.P.X
		centroid.Y += q.P.Y
		mbr = mbr.ExtendPoint(q.P)
	}
	centroid.X /= float64(len(leafPoints))
	centroid.Y /= float64(len(leafPoints))
	// spread is the farthest query point from the centroid: by the triangle
	// inequality every query point is at least sqrt(key) − spread away from
	// anything keyed at key or later. Zero for a single point.
	spread := 0.0
	for _, q := range leafPoints {
		spread = math.Max(spread, centroid.Dist(q.P))
	}

	j.live = j.live[:0]
	for qi := range queries {
		j.live = append(j.live, int32(qi))
	}
	constrained := j.opts.hasPredicates()
	l1 := j.opts.Metric == MetricL1
	h := &j.fheap
	h.reset()
	h.pushNode(0, j.tp.Root(), geom.EmptyRect(), liveSpan{0, int32(len(queries))})
	for len(h.keys) > 0 {
		k := h.pop()
		j.stats.FilterHeapPops++
		bound := j.maxPairDiameter()
		bounded := !math.IsInf(bound, 1)
		limit2 := squaredBound(bound)
		if bounded && math.Sqrt(k.dist2) > (spread+bound)*boundSlack {
			// The heap pops in ascending distance from the centroid, so
			// everything still queued is at least sqrt(key) − spread from
			// every query point — beyond any admissible pair's diameter.
			// (The slack also covers spread: both sides are rounded
			// relative to their own size, so the rule can only err toward
			// one more pop.) Terminate the traversal, crediting the
			// subtrees never read to the pushdown.
			for _, k := range append(h.keys, k) {
				if !k.isPoint {
					j.stats.NodesPruned++
				}
			}
			break
		}
		if k.isPoint {
			item := h.points[k.idx]
			px, py := item.point.P.X, item.point.P.Y
			for _, qi := range j.live[item.live.off : item.live.off+item.live.n] {
				bq := &queries[qi&^deadMark]
				if j.opts.SelfJoin && item.point.ID == bq.q.ID {
					continue
				}
				// Beyond the bound the point is neither a candidate nor a
				// useful pruner (any point it could prune is farther still),
				// so testing the bound before the pruners is set-identical
				// and spares the query points it rules out their scan and
				// their seeds. The squared pre-test settles nearly all of
				// them; the exact test below, the rest.
				if bounded {
					if dx, dy := bq.q.P.X-px, bq.q.P.Y-py; dx*dx+dy*dy > limit2 {
						continue
					}
				}
				if l1 {
					if bq.l1.prunesPoint(item.point.P) {
						continue
					}
				} else if bq.pruners.PrunesPoint(item.point.P) {
					continue
				}
				if !bq.seeded {
					bq.seed(leafPoints)
					if bq.pruners.PrunesPoint(item.point.P) {
						continue
					}
				}
				if constrained {
					var d float64
					if l1 {
						d = bq.q.P.L1Dist(item.point.P)
					} else {
						d = bq.q.P.Dist(item.point.P)
					}
					if bounded && d > bound {
						continue
					}
					if j.admitPairDist(d, bq.q, item.point) {
						bq.cands = append(bq.cands, item.point)
					}
				} else {
					bq.cands = append(bq.cands, item.point)
				}
				// A point excluded by MinDistance/Region still prunes: the join
				// predicate behind Ψ− is independent of the query predicates.
				if l1 {
					bq.l1.add(bq.q.P, item.point.P)
				} else {
					bq.pruners.Add(bq.q.P, geom.Point{X: px, Y: py})
				}
			}
			continue
		}
		item := h.nodes[k.idx]
		if !item.rect.IsEmpty() {
			// The stop rule above is per traversal; a subtree can still be
			// dead for one query point by its own distance or the Region
			// window while others need it.
			listed := j.live[item.live.off : item.live.off+item.live.n]
			start := len(j.live)
			prunedForAll, predicatesOnly, marked := true, true, false
			for _, qi := range listed {
				if qi < 0 {
					// Dead here as it was above.
					if !bounded {
						j.live = append(j.live, qi)
					}
					continue
				}
				bq := &queries[qi]
				if j.rectDead(bq.q.P, item.rect, bounded, bound) {
					if !bounded {
						j.live = append(j.live, qi|deadMark)
						marked = true
					}
					continue
				}
				predicatesOnly = false
				if l1 {
					if bq.l1.prunesRect(item.rect) {
						continue
					}
				} else if bq.pruners.PrunesRect(item.rect) {
					continue
				}
				if prunedForAll {
					if !bq.seeded {
						bq.seed(leafPoints)
						if bq.pruners.PrunesRect(item.rect) {
							continue
						}
					}
					prunedForAll = false
					if bounded {
						break
					}
				}
				j.live = append(j.live, qi)
			}
			if prunedForAll {
				if predicatesOnly && len(listed) < len(queries) {
					predicatesOnly = j.unlistedDead(queries, listed, item.rect, bounded, bound)
				}
				if predicatesOnly {
					j.stats.NodesPruned++
				}
				j.live = j.live[:start]
				continue
			}
			if n := len(j.live) - start; !bounded && (n < len(listed) || marked) {
				item.live = liveSpan{int32(start), int32(n)}
			} else {
				j.live = j.live[:start] // nothing dropped or newly marked: share the parent's list
			}
		}
		if err := j.ctxErr(); err != nil {
			return nil, err
		}
		n, err := j.tp.ReadNode(item.page)
		if err != nil {
			return nil, err
		}
		if n.Leaf {
			h.pushLeafPoints(n, centroid, item.live, mbr, limit2)
		} else {
			j.stats.NodesPruned += h.pushChildren(n, centroid, item.live, mbr, bound*boundSlack)
		}
	}
	return queries, nil
}

// rectDead reports whether a subtree under rect is dead for query point q
// by the query predicates alone: every point below it lies beyond the
// diameter bound from q, or pairs with q only outside the Region window.
func (j *joiner) rectDead(q geom.Point, rect geom.Rect, bounded bool, bound float64) bool {
	return (bounded && math.Sqrt(rect.MinDist2(q)) > bound*boundSlack) || j.regionPrunesRect(q, rect)
}

// unlistedDead reports whether every query point missing from the ascending
// list listed is dead for rect by predicate alone — what the list-free rect
// test would have found for them before reaching their pruners, which
// contain rect.
func (j *joiner) unlistedDead(queries []bulkQuery, listed []int32, rect geom.Rect, bounded bool, bound float64) bool {
	next := 0
	for qi := range queries {
		if next < len(listed) && listed[next]&^deadMark == int32(qi) {
			next++
			continue
		}
		if !j.rectDead(queries[qi].q.P, rect, bounded, bound) {
			return false
		}
	}
	return true
}
