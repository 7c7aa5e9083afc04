package joins

import (
	"container/heap"
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// KClosestPairsStream streams the k closest pairs of the pointsets indexed
// by tp and tq into fn in nondecreasing distance order, via the incremental
// distance join of Hjaltason & Samet (SIGMOD 98): a min-heap over element
// pairs keyed by the minimum distance between them, expanding whichever
// element of a popped pair is a node. Popped point–point pairs arrive in
// exact global distance order, so the first k pops are the answer.
func KClosestPairsStream(tp, tq *rtree.Tree, k int, fn func(Pair)) error {
	if k <= 0 || tp.Root() == storage.InvalidPageID || tq.Root() == storage.InvalidPageID {
		return nil
	}
	h := &cpHeap{&cpItem{dist2: 0, pPage: tp.Root(), qPage: tq.Root()}}
	heap.Init(h)
	emitted := 0
	for h.Len() > 0 && emitted < k {
		it := heap.Pop(h).(*cpItem)
		switch {
		case it.pIsPoint && it.qIsPoint:
			fn(Pair{P: it.pPoint, Q: it.qPoint, Dist: math.Sqrt(it.dist2)})
			emitted++
		case !it.pIsPoint:
			// Expand the P side first (arbitrary but fixed: it keeps pairs
			// balanced because the next pop re-evaluates the Q side).
			np, err := tp.ReadNode(it.pPage)
			if err != nil {
				return err
			}
			qRect := it.qRect(tq)
			if np.Leaf {
				for i := 0; i < np.NumPoints(); i++ {
					child := it.withP(np.EntryAt(i))
					child.dist2 = child.minDist2(qRect)
					heap.Push(h, child)
				}
			} else {
				for _, c := range np.Children {
					child := it.withPNode(c.Child, c.MBR)
					child.dist2 = child.minDist2(qRect)
					heap.Push(h, child)
				}
			}
		default:
			nq, err := tq.ReadNode(it.qPage)
			if err != nil {
				return err
			}
			pRect := geom.RectFromPoint(it.pPoint.P)
			if nq.Leaf {
				for i := 0; i < nq.NumPoints(); i++ {
					child := it.withQ(nq.EntryAt(i))
					child.dist2 = child.minDist2FromQ(pRect)
					heap.Push(h, child)
				}
			} else {
				for _, c := range nq.Children {
					child := it.withQNode(c.Child, c.MBR)
					child.dist2 = child.minDist2FromQ(pRect)
					heap.Push(h, child)
				}
			}
		}
	}
	return nil
}

// cpItem is a heap element of the incremental distance join: a pair whose
// sides are each either an unexpanded subtree (with MBR) or a point.
type cpItem struct {
	dist2            float64
	pIsPoint         bool
	qIsPoint         bool
	pPage, qPage     storage.PageID
	pMBR, qMBR       geom.Rect
	pPoint, qPoint   rtree.PointEntry
	pHasMBR, qHasMBR bool
}

// qRect returns the rectangle standing for the Q side (point, known MBR, or
// the whole tree for the root seed).
func (it *cpItem) qRect(tq *rtree.Tree) geom.Rect {
	if it.qIsPoint {
		return geom.RectFromPoint(it.qPoint.P)
	}
	if it.qHasMBR {
		return it.qMBR
	}
	r, err := tq.RootMBR()
	if err != nil {
		return geom.EmptyRect()
	}
	return r
}

func (it *cpItem) withP(p rtree.PointEntry) *cpItem {
	c := *it
	c.pIsPoint, c.pPoint, c.pHasMBR = true, p, false
	return &c
}

func (it *cpItem) withPNode(page storage.PageID, mbr geom.Rect) *cpItem {
	c := *it
	c.pIsPoint, c.pPage, c.pMBR, c.pHasMBR = false, page, mbr, true
	return &c
}

func (it *cpItem) withQ(q rtree.PointEntry) *cpItem {
	c := *it
	c.qIsPoint, c.qPoint, c.qHasMBR = true, q, false
	return &c
}

func (it *cpItem) withQNode(page storage.PageID, mbr geom.Rect) *cpItem {
	c := *it
	c.qIsPoint, c.qPage, c.qMBR, c.qHasMBR = false, page, mbr, true
	return &c
}

// minDist2 computes the pair key given the Q side's standing rectangle.
func (it *cpItem) minDist2(qRect geom.Rect) float64 {
	if it.pIsPoint {
		if it.qIsPoint {
			return it.pPoint.P.Dist2(it.qPoint.P)
		}
		return qRect.MinDist2(it.pPoint.P)
	}
	return geom.RectMinDist2(it.pMBR, qRect)
}

// minDist2FromQ mirrors minDist2 when the P side's rectangle is known.
func (it *cpItem) minDist2FromQ(pRect geom.Rect) float64 {
	if it.qIsPoint {
		if it.pIsPoint {
			return it.pPoint.P.Dist2(it.qPoint.P)
		}
		return pRect.MinDist2(it.qPoint.P)
	}
	return geom.RectMinDist2(it.qMBR, pRect)
}

type cpHeap []*cpItem

func (h cpHeap) Len() int { return len(h) }
func (h cpHeap) Less(i, j int) bool {
	if h[i].dist2 != h[j].dist2 {
		return h[i].dist2 < h[j].dist2
	}
	// Resolved point pairs first, so results are never starved by
	// equal-keyed subtrees.
	ri := h[i].pIsPoint && h[i].qIsPoint
	rj := h[j].pIsPoint && h[j].qIsPoint
	return ri && !rj
}
func (h cpHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cpHeap) Push(x any)   { *h = append(*h, x.(*cpItem)) }
func (h *cpHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
