package core

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// regionGrid is the side of the probe grid RegionDiameter lays over a window:
// regionGrid² cell centres, one nearest-neighbour distance each. A finer grid
// tightens the bound (the half-diagonal term shrinks) but spreads the probes
// over more of the trees. Measured per grid side on G20k x U20k (warm pool,
// forced OBJ, 32 windows of side 400-800 centred on U points over 4 layouts,
// 2-vCPU Xeon; medians, best of 3 runs per window, two sweeps) and on
// rcj's join_counts.golden corpus (the 1 % corner window, OBJ: accesses, and
// faults through its 3-page LRU):
//
//	grid   probe accesses   window accesses   window ms   golden accesses / LRU faults
//	none         -                894           18.4             72 / 70
//	1x1          4                172          2.4-2.8           81 / 80
//	2x2         11                148          1.7-1.8           69 / 68
//	3x3         14                136          1.5-1.7           71 / 70
//	4x4         15                133            1.4             72 / 71
//	6x6         15                123          1.2-1.3           73 / 72
//	8x8         17                126          1.3-1.5           73 / 72
//
// 3x3 is within the noise of the best time on the large inputs and is the
// largest grid whose golden window costs no more accesses or faults than
// the unbounded window did.
const regionGrid = 3

// RegionDiameter returns an upper bound on the diameter of every RCJ pair of
// tq and tp whose circle centre lies in the closed window w, or +Inf when
// neither input holds a point. The bound follows from the join predicate: a
// result ring holds no other point of P ∪ Q, so its centre c is exactly as
// far from its nearest point of P ∪ Q (an endpoint) as its radius, r(c) =
// NN(c). NN is 1-Lipschitz, so any probe m at most h from c gives r(c) ≤
// NN(m) + h. The window is cut into regionGrid² cells, every centre in it
// lies within its cell's half-diagonal h of the cell centre, and so 2·max
// over cells of (NN(m) + h) bounds the diameter of every pair the window
// admits. The result is widened by boundSlack and by an absolute term at the
// rounding scale of the largest coordinate involved (as Monitor's slack is),
// so a rounded midpoint or distance can never put an admitted pair past it.
//
// The executor derives it for every Euclidean Region query whose
// MaxDiameter is zero (derivesRegionBound) and runs the window as a bounded
// window. The cell centres share one depth-first pass per tree (one for a
// self-join), which reads each node at most once: a subtree is entered only
// when it may hold a point nearer to some probe than that probe's best so
// far, children nearest a probe first. The reads go through the indexes, so
// they count in the run's node accesses.
func RegionDiameter(tq, tp SpatialIndex, w geom.Rect) (float64, error) {
	var pr nnProbes
	cw := (w.MaxX - w.MinX) / regionGrid
	ch := (w.MaxY - w.MinY) / regionGrid
	for i := range regionGrid {
		for k := range regionGrid {
			pr.m[i*regionGrid+k] = geom.Point{X: w.MinX + (float64(i)+0.5)*cw, Y: w.MinY + (float64(k)+0.5)*ch}
		}
	}
	for i := range pr.best {
		pr.best[i] = math.Inf(1)
	}
	pr.maxAbs = maxAbs(w)
	trees := []SpatialIndex{tq}
	if tp != tq {
		trees = append(trees, tp)
	}
	for _, ix := range trees {
		if err := pr.scan(ix); err != nil {
			return 0, err
		}
	}
	worst := 0.0
	for _, d2 := range pr.best {
		worst = max(worst, d2)
	}
	d := 2 * (math.Sqrt(worst) + math.Hypot(cw, ch)/2)
	return d*boundSlack + 0x1p-40*pr.maxAbs, nil
}

// derivesRegionBound reports whether the executor derives the window's
// diameter bound (RegionDiameter) before the traversal: a Euclidean Region
// query with MaxDiameter zero. A positive MaxDiameter is taken as given, and
// +Inf asks for no bound at all.
func (o Options) derivesRegionBound() bool {
	return o.Region != nil && o.MaxDiameter == 0 && o.Metric == MetricL2
}

// nnProbes is RegionDiameter's shared nearest-neighbour search: the cell
// centres, each one's best squared distance so far, and the largest
// coordinate magnitude seen (the window's and both roots').
type nnProbes struct {
	m      [regionGrid * regionGrid]geom.Point
	best   [regionGrid * regionGrid]float64
	maxAbs float64
}

// scan runs the pass over one tree.
func (pr *nnProbes) scan(ix SpatialIndex) error {
	root := ix.Root()
	if root == storage.InvalidPageID {
		return nil
	}
	n, err := ix.ReadNode(root)
	if err != nil {
		return err
	}
	pr.maxAbs = max(pr.maxAbs, maxAbs(n.MBR()))
	return pr.visit(ix, n)
}

// visit folds a read node into the probes' best distances: a leaf's points
// directly, an internal node's children in ascending distance from their
// nearest probe, each entered only while some probe could still improve.
func (pr *nnProbes) visit(ix SpatialIndex, n *rtree.Node) error {
	if n.Leaf {
		for i := range n.IDs {
			x, y := n.Xs[i], n.Ys[i]
			for k, m := range pr.m {
				dx, dy := m.X-x, m.Y-y
				pr.best[k] = min(pr.best[k], dx*dx+dy*dy)
			}
		}
		return nil
	}
	type child struct {
		key float64
		e   rtree.ChildEntry
	}
	kids := make([]child, len(n.Children))
	for i, e := range n.Children {
		key := math.Inf(1)
		for _, m := range pr.m {
			key = min(key, e.MBR.MinDist2(m))
		}
		kids[i] = child{key, e}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].key < kids[b].key })
	for _, c := range kids {
		if !pr.improves(c.e.MBR) {
			continue
		}
		cn, err := ix.ReadNode(c.e.Child)
		if err != nil {
			return err
		}
		if err := pr.visit(ix, cn); err != nil {
			return err
		}
	}
	return nil
}

// improves reports whether r may hold a point strictly nearer to some probe
// than that probe's best so far.
func (pr *nnProbes) improves(r geom.Rect) bool {
	for k, m := range pr.m {
		if r.MinDist2(m) < pr.best[k] {
			return true
		}
	}
	return false
}

// maxAbs is the largest coordinate magnitude of r.
func maxAbs(r geom.Rect) float64 {
	return max(-r.MinX, r.MaxX, -r.MinY, r.MaxY)
}
