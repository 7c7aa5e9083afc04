package joins

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// EpsilonJoinStream computes the ε-distance join of the pointsets indexed by
// tp and tq — all pairs <p, q> with dist(p, q) ≤ ε — via the synchronized
// R-tree traversal of Brinkhoff et al. — node pairs are expanded only when the
// minimum distance between their MBRs is within ε — streaming each result
// pair into fn (which may be nil) and returning the pair count. Streaming
// matters for the resemblance sweeps, where large ε values produce result
// sets far bigger than either input.
func EpsilonJoinStream(tp, tq *rtree.Tree, eps float64, fn func(Pair)) (int64, error) {
	if tp.Root() == storage.InvalidPageID || tq.Root() == storage.InvalidPageID {
		return 0, nil
	}
	e := &epsJoiner{tp: tp, tq: tq, eps2: eps * eps, fn: fn}
	err := e.joinNodes(tp.Root(), tq.Root())
	return e.count, err
}

type epsJoiner struct {
	tp, tq *rtree.Tree
	eps2   float64
	fn     func(Pair)
	count  int64
}

func (e *epsJoiner) joinNodes(pPage, qPage storage.PageID) error {
	np, err := e.tp.ReadNode(pPage)
	if err != nil {
		return err
	}
	nq, err := e.tq.ReadNode(qPage)
	if err != nil {
		return err
	}
	switch {
	case np.Leaf && nq.Leaf:
		// Columnar leaf-leaf kernel: the distance test touches only the
		// coordinate slices; point entries are materialized for matches alone.
		pxs, pys, pids := np.Xs, np.Ys, np.IDs
		qxs, qys, qids := nq.Xs, nq.Ys, nq.IDs
		for i, pid := range pids {
			px, py := pxs[i], pys[i]
			for k, qid := range qids {
				dx, dy := px-qxs[k], py-qys[k]
				if d2 := dx*dx + dy*dy; d2 <= e.eps2 {
					e.count++
					if e.fn != nil {
						e.fn(Pair{
							P:    rtree.PointEntry{P: geom.Point{X: px, Y: py}, ID: pid},
							Q:    rtree.PointEntry{P: geom.Point{X: qxs[k], Y: qys[k]}, ID: qid},
							Dist: math.Sqrt(d2),
						})
					}
				}
			}
		}
		return nil
	case np.Leaf:
		// Unbalanced heights: descend only the non-leaf side.
		mp := np.MBR()
		for _, cq := range nq.Children {
			if geom.RectMinDist2(mp, cq.MBR) <= e.eps2 {
				if err := e.joinNodes(pPage, cq.Child); err != nil {
					return err
				}
			}
		}
		return nil
	case nq.Leaf:
		mq := nq.MBR()
		for _, cp := range np.Children {
			if geom.RectMinDist2(cp.MBR, mq) <= e.eps2 {
				if err := e.joinNodes(cp.Child, qPage); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		for _, cp := range np.Children {
			for _, cq := range nq.Children {
				if geom.RectMinDist2(cp.MBR, cq.MBR) <= e.eps2 {
					if err := e.joinNodes(cp.Child, cq.Child); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}
