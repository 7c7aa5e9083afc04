package joins

import (
	"math"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// KNNJoinStream computes the k-nearest-neighbor join of the pointsets
// indexed by tp and tq: for every p ∈ P, the pairs <p, q> where q is one of
// the k nearest neighbors of p in Q, streamed into fn grouped by outer point
// with each group in nondecreasing distance order. The result has exactly
// k·|P| pairs (fewer if |Q| < k) and is asymmetric — swapping the inputs
// changes the answer, as Table 1 of the paper notes.
//
// Each outer point runs an incremental-NN scan on tq; outer points are
// visited in depth-first leaf order so consecutive scans share tree paths.
func KNNJoinStream(tp, tq *rtree.Tree, k int, fn func(Pair)) error {
	if k <= 0 {
		return nil
	}
	_, err := rtree.VisitLeaves(tp, nil, func(_ storage.PageID, n *rtree.Node) error {
		for i := 0; i < n.NumPoints(); i++ {
			p := n.EntryAt(i)
			it := tq.NewINNIterator(p.P)
			for i := 0; i < k; i++ {
				q, d2, ok := it.Next()
				if !ok {
					if err := it.Err(); err != nil {
						return err
					}
					break
				}
				fn(Pair{P: p, Q: q, Dist: math.Sqrt(d2)})
			}
		}
		return nil
	})
	return err
}
