package rtree

import (
	"repro/internal/geom"
	"repro/internal/storage"
)

// RangeSearch returns all indexed points inside or on the boundary of w.
func (t *Tree) RangeSearch(w geom.Rect) ([]PointEntry, error) {
	var out []PointEntry
	err := t.rangeRec(t.root, w, &out)
	return out, err
}

func (t *Tree) rangeRec(id storage.PageID, w geom.Rect, out *[]PointEntry) error {
	if id == storage.InvalidPageID {
		return nil
	}
	n, err := t.ReadNode(id)
	if err != nil {
		return err
	}
	if n.Leaf {
		xs, ys := n.Xs, n.Ys
		for i, id := range n.IDs {
			x, y := xs[i], ys[i]
			if x >= w.MinX && x <= w.MaxX && y >= w.MinY && y <= w.MaxY {
				*out = append(*out, PointEntry{P: geom.Point{X: x, Y: y}, ID: id})
			}
		}
		return nil
	}
	for _, e := range n.Children {
		if e.MBR.Intersects(w) {
			if err := t.rangeRec(e.Child, w, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanAll returns every indexed point by a full depth-first traversal, in
// leaf order. Useful for tests and for exporting datasets.
func (t *Tree) ScanAll() ([]PointEntry, error) {
	out := make([]PointEntry, 0, t.size)
	_, err := VisitLeaves(t, nil, func(_ storage.PageID, n *Node) error {
		out = n.AppendPointsTo(out)
		return nil
	})
	return out, err
}

// NodeReader is all a hierarchy must offer to be walked — and all the join
// executor asks of an index (core.SpatialIndex): where the root is, and how
// to read a node.
type NodeReader interface {
	// Root returns the root page, or storage.InvalidPageID when empty.
	Root() storage.PageID
	// ReadNode fetches one node.
	ReadNode(storage.PageID) (*Node, error)
}

// VisitLeaves is the one leaf walk: it applies fn to every leaf of ix, with
// the leaf's page id, in depth-first order — the traversal order Algorithm 5
// of the paper prescribes for the outer join input, chosen so consecutive
// filter/verification invocations touch nearby tree paths and the buffer
// absorbs them. A subtree whose entry MBR satisfies skip (which may be nil)
// is neither read nor descended, and a root leaf is tested against its own
// MBR; the number of subtrees skipped is returned. The query executor uses
// skip to push the Region window into the *outer* traversal: a leaf of TQ
// whose midpoint rect with TP's MBR misses the window cannot produce a
// qualifying circle center, so it is never read.
func VisitLeaves(ix NodeReader, skip func(geom.Rect) bool, fn func(storage.PageID, *Node) error) (skipped int64, err error) {
	root := ix.Root()
	if root == storage.InvalidPageID {
		return 0, nil
	}
	n, err := ix.ReadNode(root)
	if err != nil {
		return 0, err
	}
	if n.Leaf && skip != nil && skip(n.MBR()) {
		return 1, nil
	}
	// walk visits the subtree under node n, already read from page id.
	var walk func(id storage.PageID, n *Node) error
	walk = func(id storage.PageID, n *Node) error {
		if n.Leaf {
			return fn(id, n)
		}
		for _, e := range n.Children {
			if skip != nil && skip(e.MBR) {
				skipped++
				continue
			}
			c, err := ix.ReadNode(e.Child)
			if err != nil {
				return err
			}
			if err := walk(e.Child, c); err != nil {
				return err
			}
		}
		return nil
	}
	err = walk(root, n)
	return skipped, err
}
