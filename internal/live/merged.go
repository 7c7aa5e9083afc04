package live

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The merged view presents base+delta−tombstones as ONE R-tree to the core
// executor, through a virtual page-id space:
//
//	[0, deltaPageBase)            base pages, ids unchanged
//	[deltaPageBase, 2^32-16)      delta pages, offset by deltaPageBase
//	syntheticRootPage             the synthetic root joining the two
//
// Base pages pass through untouched unless the leaf holds a tombstoned
// point, in which case a filtered copy is returned (the columnar arrays
// minus masked entries). Delta internal nodes are returned as copies with
// child ids offset into the virtual range; delta leaves pass through
// verbatim (leaf pages hold no page references). The synthetic root is an
// internal node over the two real roots — the executor never assumes
// uniform subtree height, so the (possibly different) base and delta
// heights are fine.
//
// Correctness under masked points: every traversal rule the executor
// applies to MBRs (mindist ordering, Ψ-pruner rect checks, diameter and
// region bounds, TopK branch-and-bound) is conservative when an MBR is
// inflated relative to the live points beneath it — a stale bound can only
// fail to prune. The single exception is the verification face rule, which
// infers a nonempty subtree from an MBR's position; Snapshot.DisableFaceRule
// tells callers to turn it off while tombstones exist.
const (
	deltaPageBase     = storage.PageID(1) << 31
	syntheticRootPage = storage.PageID(0xFFFFFFF0)
)

// merged is the virtual SpatialIndex over one epoch: Root and ReadNode are
// the whole of it, and every traversal — the executor's, rtree.VisitLeaves —
// walks the synthetic root (no buffer access), then the base, then the
// delta. It is stateless after construction and safe for the executor's
// concurrent workers.
type merged struct {
	base  *rtree.Tree // tagged view; nil when the base is empty
	delta *rtree.Tree // tagged view; nil when the delta is empty
	tombs map[int64]struct{}
	root  storage.PageID
	rootN *rtree.Node // synthetic root; non-nil iff both sides are nonempty
}

// View builds the snapshot's merged read view. Buffer accesses of both the
// base and delta trees are attributed to rec, so per-request statistics
// stay exact.
func (s *Snapshot) View(rec *buffer.TagStats) (core.SpatialIndex, error) {
	e := s.e
	v := &merged{tombs: e.tombs}
	if t := e.base.b.Tree; t != nil && t.Root() != storage.InvalidPageID {
		v.base = t.Tagged(rec)
	}
	if t := e.delta; t != nil && t.Root() != storage.InvalidPageID {
		v.delta = t.Tagged(rec)
	}
	switch {
	case v.base == nil && v.delta == nil:
		v.root = storage.InvalidPageID
	case v.delta == nil:
		v.root = v.base.Root()
	case v.base == nil:
		v.root = v.delta.Root() + deltaPageBase
	default:
		baseMBR, err := v.base.RootMBR()
		if err != nil {
			return nil, err
		}
		deltaMBR, err := v.delta.RootMBR()
		if err != nil {
			return nil, err
		}
		v.root = syntheticRootPage
		v.rootN = &rtree.Node{Children: []rtree.ChildEntry{
			{MBR: baseMBR, Child: v.base.Root()},
			{MBR: deltaMBR, Child: v.delta.Root() + deltaPageBase},
		}}
	}
	return v, nil
}

func (v *merged) Root() storage.PageID { return v.root }

func (v *merged) ReadNode(id storage.PageID) (*rtree.Node, error) {
	switch {
	case id == syntheticRootPage:
		if v.rootN == nil {
			return nil, fmt.Errorf("live: synthetic root read on single-sided view")
		}
		return v.rootN, nil
	case id >= deltaPageBase:
		if v.delta == nil {
			return nil, fmt.Errorf("live: delta page %d read on view without delta", id)
		}
		n, err := v.delta.ReadNode(id - deltaPageBase)
		if err != nil || n.Leaf {
			return n, err
		}
		kids := make([]rtree.ChildEntry, len(n.Children))
		for i, c := range n.Children {
			kids[i] = rtree.ChildEntry{MBR: c.MBR, Child: c.Child + deltaPageBase}
		}
		return &rtree.Node{Children: kids}, nil
	default:
		if v.base == nil {
			return nil, fmt.Errorf("live: base page %d read on view without base", id)
		}
		n, err := v.base.ReadNode(id)
		if err != nil || !n.Leaf {
			return n, err
		}
		return v.filterLeaf(n), nil
	}
}

// filterLeaf masks tombstoned points out of a base leaf. Untouched leaves
// are returned as-is (no copy); a leaf with masked entries is rebuilt as a
// fresh columnar node, never mutating the (possibly cached and shared)
// original.
func (v *merged) filterLeaf(n *rtree.Node) *rtree.Node {
	if len(v.tombs) == 0 {
		return n
	}
	masked := 0
	for _, id := range n.IDs {
		if _, dead := v.tombs[id]; dead {
			masked++
		}
	}
	if masked == 0 {
		return n
	}
	keep := len(n.IDs) - masked
	out := &rtree.Node{
		Leaf: true,
		Xs:   make([]float64, 0, keep),
		Ys:   make([]float64, 0, keep),
		IDs:  make([]int64, 0, keep),
	}
	for i, id := range n.IDs {
		if _, dead := v.tombs[id]; dead {
			continue
		}
		out.Xs = append(out.Xs, n.Xs[i])
		out.Ys = append(out.Ys, n.Ys[i])
		out.IDs = append(out.IDs, id)
	}
	return out
}
