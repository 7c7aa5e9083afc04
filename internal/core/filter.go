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
// for OBJ, Lemma 5). Per (point, query) pair the order of work is: the
// squared diameter bound, if any; then the query point's pruners, seeded
// with its Lemma-5 siblings on its first probe; then the exact bound and
// the query predicates.

// filterItem is a priority-queue element of the filter traversal: an
// unexpanded TP subtree or an indexed point, keyed by (squared) distance
// from the reference location.
type filterItem struct {
	dist2   float64
	isPoint bool
	page    storage.PageID
	rect    geom.Rect // subtree MBR when !isPoint
	point   rtree.PointEntry
}

// filterHeap is a min-heap of filterItem by distance, points before subtrees
// at equal keys. It is hand-rolled rather than built on container/heap: the
// interface indirection there boxes every pushed item into a heap allocation,
// and the filter pushes one item per leaf point touched — the dominant
// allocation of a warm join. The sift procedures mirror container/heap's
// exactly, so the pop order (tie handling included) is identical to the
// previous implementation and every equivalence gate stays byte-identical.
type filterHeap []filterItem

func (h filterHeap) less(i, j int) bool {
	if h[i].dist2 != h[j].dist2 {
		return h[i].dist2 < h[j].dist2
	}
	return h[i].isPoint && !h[j].isPoint
}

func (h *filterHeap) push(it filterItem) {
	*h = append(*h, it)
	s := *h
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

func (h *filterHeap) pop() filterItem {
	s := *h
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
	it := s[n]
	*h = s[:n]
	return it
}

// pushLeafPoints expands a leaf node onto the heap: one pass over the
// coordinate columns with the squared distance from (rx, ry) computed
// inline — no per-entry struct reads, no interface boxing.
func (h *filterHeap) pushLeafPoints(n *rtree.Node, rx, ry float64) {
	xs, ys := n.Xs, n.Ys
	for i, id := range n.IDs {
		dx, dy := rx-xs[i], ry-ys[i]
		h.push(filterItem{
			dist2:   dx*dx + dy*dy,
			isPoint: true,
			point:   rtree.PointEntry{P: geom.Point{X: xs[i], Y: ys[i]}, ID: id},
		})
	}
}

// pushChildren expands an internal node onto the heap keyed by MINDIST from
// (the point) ref.
func (h *filterHeap) pushChildren(n *rtree.Node, ref geom.Point) {
	for _, e := range n.Children {
		h.push(filterItem{dist2: e.MBR.MinDist2(ref), page: e.Child, rect: e.MBR})
	}
}

// bulkQuery is the per-point state of the filter: the query point, its
// accumulated pruning regions, and its candidate set q.S. seeded reports
// whether the Lemma-5 sibling half-planes are in pruners yet (always true
// without symmetric pruning).
type bulkQuery struct {
	q       rtree.PointEntry
	pruners geom.PrunerSet
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
		queries[i].cands = queries[i].cands[:0]
		queries[i].seeded = !symmetric
	}
	return queries
}

// candidateBatch wraps one filter call's surviving points into verification
// candidates with their enclosing rings — the one batch builder behind every
// filter (INJ, BIJ, OBJ and the L1 stage; ring is the metric's two-point
// ball). One backing array serves the whole batch instead of a heap
// allocation per candidate pair.
func candidateBatch(queries []bulkQuery, ring func(p, q geom.Point) geom.Circle) []*candidate {
	total := 0
	for i := range queries {
		total += len(queries[i].cands)
	}
	backing := make([]candidate, 0, total)
	cands := make([]*candidate, 0, total)
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
// With symmetric pruning (OBJ, Lemma 5), each query point's pruner set holds
// Ψ−(q, q') for every sibling q' in the leaf (bulkQuery.seed), so even an
// empty candidate set shrinks the search space. Under a diameter bound
// (MaxDiameter or TopK's dynamic one) a popped point meets each query
// point's bound (squaredBound) before its pruners, so a bounded batch scans
// and seeds only the query points its bound admits.
//
// For self-joins a query point is itself present in TP; it is skipped (a
// point forms no pair with itself and its degenerate pruning region would
// annihilate the search).
//
// The returned slice is scratch owned by the joiner, valid until the next
// filter call.
func (j *joiner) bulkFilter(leafPoints []rtree.PointEntry, symmetric bool) ([]bulkQuery, error) {
	if len(leafPoints) == 0 || j.tp.Root() == storage.InvalidPageID {
		return nil, nil
	}
	queries := j.resetQueries(leafPoints, symmetric)
	var centroid geom.Point
	for _, q := range leafPoints {
		centroid.X += q.P.X
		centroid.Y += q.P.Y
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

	constrained := j.opts.hasPredicates()
	h := &j.fheap
	*h = (*h)[:0]
	h.push(filterItem{dist2: 0, page: j.tp.Root(), rect: geom.EmptyRect()})
	for len(*h) > 0 {
		item := h.pop()
		j.stats.FilterHeapPops++
		bound := j.maxPairDiameter()
		bounded := !math.IsInf(bound, 1)
		if bounded && math.Sqrt(item.dist2) > (spread+bound)*boundSlack {
			// The heap pops in ascending distance from the centroid, so
			// everything still queued is at least sqrt(key) − spread from
			// every query point — beyond any admissible pair's diameter.
			// (The slack also covers spread: both sides are rounded
			// relative to their own size, so the rule can only err toward
			// one more pop.) Terminate the traversal, crediting the
			// subtrees never read to the pushdown.
			for _, it := range append(*h, item) {
				if !it.isPoint {
					j.stats.NodesPruned++
				}
			}
			break
		}
		if item.isPoint {
			px, py := item.point.P.X, item.point.P.Y
			limit2 := squaredBound(bound)
			for qi := range queries {
				bq := &queries[qi]
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
				if bq.pruners.PrunesPoint(item.point.P) {
					continue
				}
				if !bq.seeded {
					bq.seed(leafPoints)
					if bq.pruners.PrunesPoint(item.point.P) {
						continue
					}
				}
				if constrained {
					d := bq.q.P.Dist(item.point.P)
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
				bq.pruners.Add(bq.q.P, geom.Point{X: px, Y: py})
			}
			continue
		}
		if !item.rect.IsEmpty() {
			// The stop rule above is per traversal; a subtree can still be
			// dead for one query point by its own distance or the Region
			// window while others need it.
			prunedForAll := true
			predicatesOnly := true
			for qi := range queries {
				bq := &queries[qi]
				if (bounded && math.Sqrt(item.rect.MinDist2(bq.q.P)) > bound*boundSlack) ||
					j.regionPrunesRect(bq.q.P, item.rect) {
					// Dead for this query point by predicate alone.
					continue
				}
				predicatesOnly = false
				if bq.pruners.PrunesRect(item.rect) {
					continue
				}
				if !bq.seeded {
					bq.seed(leafPoints)
					if bq.pruners.PrunesRect(item.rect) {
						continue
					}
				}
				prunedForAll = false
				break
			}
			if prunedForAll {
				if predicatesOnly {
					j.stats.NodesPruned++
				}
				continue
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
			h.pushLeafPoints(n, centroid.X, centroid.Y)
		} else {
			h.pushChildren(n, centroid)
		}
	}
	return queries, nil
}
