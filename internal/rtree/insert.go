package rtree

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/storage"
)

// treeEntry is the union of the two entry kinds so that forced reinsertion
// can requeue entries from any level.
type treeEntry struct {
	isPoint bool
	pt      PointEntry
	child   ChildEntry
}

func (e treeEntry) rect() geom.Rect {
	if e.isPoint {
		return geom.RectFromPoint(e.pt.P)
	}
	return e.child.MBR
}

// pendingReinsert is an entry removed by forced reinsertion, waiting to be
// inserted again at its original level (levels are counted from the leaves:
// leaf entries live at level 1, entries pointing at leaves at level 2, and
// so on — stable even when the root splits mid-operation).
type pendingReinsert struct {
	entry treeEntry
	level int
}

// insertState carries the per-top-level-insertion bookkeeping of the R*
// overflow treatment: which levels have already used their one forced
// reinsertion, and the queue of removed entries.
type insertState struct {
	reinsertedAt map[int]bool
	pending      []pendingReinsert
}

// Insert adds one point to the tree using the R*-tree insertion algorithm
// (choose-subtree, forced reinsertion on first overflow per level, R* split
// otherwise).
func (t *Tree) Insert(p geom.Point, id int64) error {
	entry := treeEntry{isPoint: true, pt: PointEntry{P: p, ID: id}}
	if t.root == storage.InvalidPageID {
		rootID, err := t.allocNode(NewLeaf([]PointEntry{entry.pt}))
		if err != nil {
			return err
		}
		t.root = rootID
		t.height = 1
		t.size = 1
		return nil
	}
	st := &insertState{reinsertedAt: make(map[int]bool)}
	if err := t.insertAtLevel(entry, 1, st); err != nil {
		return err
	}
	// Drain forced-reinsertion queue. Reinsertions may enqueue more work for
	// levels that have not yet used their pass; levels that have split
	// instead.
	for len(st.pending) > 0 {
		next := st.pending[0]
		st.pending = st.pending[1:]
		if err := t.insertAtLevel(next.entry, next.level, st); err != nil {
			return err
		}
	}
	t.size++
	return nil
}

// insertAtLevel inserts entry at the given level, growing the root if the
// root itself splits.
func (t *Tree) insertAtLevel(entry treeEntry, level int, st *insertState) error {
	split, err := t.insertRec(t.root, t.height, entry, level, st)
	if err != nil {
		return err
	}
	if split == nil {
		return nil
	}
	// Root split: the old root keeps its page; a sibling was created; a new
	// root points at both.
	oldRoot, err := t.ReadNode(t.root)
	if err != nil {
		return err
	}
	newRoot := &Node{Children: []ChildEntry{
		{MBR: oldRoot.MBR(), Child: t.root},
		*split,
	}}
	rootID, err := t.allocNode(newRoot)
	if err != nil {
		return err
	}
	t.root = rootID
	t.height++
	return nil
}

// insertRec descends from the node at page id (which sits at the given level)
// to the target level, inserts the entry, and propagates splits upward. It
// returns the entry for a newly created sibling when this node split.
func (t *Tree) insertRec(id storage.PageID, level int, entry treeEntry, targetLevel int, st *insertState) (*ChildEntry, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return nil, err
	}
	if level < targetLevel {
		return nil, fmt.Errorf("rtree: descended past target level %d (at %d)", targetLevel, level)
	}

	if level == targetLevel {
		if entry.isPoint != n.Leaf {
			return nil, fmt.Errorf("rtree: entry kind (point=%v) does not match node at level %d", entry.isPoint, level)
		}
		if n.Leaf {
			n.AppendPoint(entry.pt)
		} else {
			n.Children = append(n.Children, entry.child)
		}
		return t.handleOverflow(id, n, level, st)
	}

	// Descend: choose the child whose enlargement is cheapest.
	idx := t.chooseSubtree(n, entry.rect(), level)
	split, err := t.insertRec(n.Children[idx].Child, level-1, entry, targetLevel, st)
	if err != nil {
		return nil, err
	}
	// Refresh the child MBR: it may have grown (insert) or shrunk (forced
	// reinsertion removed entries).
	child, err := t.ReadNode(n.Children[idx].Child)
	if err != nil {
		return nil, err
	}
	n.Children[idx].MBR = child.MBR()
	if split != nil {
		n.Children = append(n.Children, *split)
	}
	return t.handleOverflow(id, n, level, st)
}

// handleOverflow writes n back and, if overfull, applies the R* overflow
// treatment: forced reinsertion the first time a level overflows during one
// top-level insertion (never for the root), a split otherwise.
func (t *Tree) handleOverflow(id storage.PageID, n *Node, level int, st *insertState) (*ChildEntry, error) {
	maxEntries := t.maxChild
	if n.Leaf {
		maxEntries = t.maxLeaf
	}
	if n.Len() <= maxEntries {
		return nil, t.writeNode(id, n)
	}
	isRoot := id == t.root
	if !isRoot && !st.reinsertedAt[level] {
		st.reinsertedAt[level] = true
		t.forceReinsert(n, level, st)
		return nil, t.writeNode(id, n)
	}
	return t.splitNode(id, n)
}

// forceReinsert removes the reinsertRatio fraction of entries whose centers
// lie farthest from the node's MBR center and queues them for reinsertion at
// the same level ("far reinsert" variant of the R*-tree paper).
func (t *Tree) forceReinsert(n *Node, level int, st *insertState) {
	center := n.MBR().Center()
	p := int(float64(n.Len()) * reinsertRatio)
	if p < 1 {
		p = 1
	}
	if n.Leaf {
		pts := n.Points()
		sort.Slice(pts, func(i, j int) bool {
			return pts[i].P.Dist2(center) < pts[j].P.Dist2(center)
		})
		keep := len(pts) - p
		for _, e := range pts[keep:] {
			st.pending = append(st.pending, pendingReinsert{
				entry: treeEntry{isPoint: true, pt: e},
				level: level,
			})
		}
		n.SetPoints(pts[:keep])
		return
	}
	sort.Slice(n.Children, func(i, j int) bool {
		return n.Children[i].MBR.Center().Dist2(center) < n.Children[j].MBR.Center().Dist2(center)
	})
	keep := len(n.Children) - p
	for _, e := range n.Children[keep:] {
		st.pending = append(st.pending, pendingReinsert{
			entry: treeEntry{child: e},
			level: level,
		})
	}
	n.Children = n.Children[:keep]
}

// chooseSubtree picks the child of n to descend into for an entry with
// rectangle r, following the R*-tree policy: minimum overlap enlargement when
// the children are leaves, minimum area enlargement otherwise, with area
// enlargement and then area as tie-breakers.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect, level int) int {
	childrenAreLeaves := level == 2
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnl, bestArea := 0.0, 0.0, 0.0
		for i, e := range n.Children {
			enlarged := e.MBR.Union(r)
			var overlapDelta float64
			for j, o := range n.Children {
				if j == i {
					continue
				}
				overlapDelta += enlarged.OverlapArea(o.MBR) - e.MBR.OverlapArea(o.MBR)
			}
			enl := enlarged.Area() - e.MBR.Area()
			area := e.MBR.Area()
			if i == 0 || less3(overlapDelta, enl, area, bestOverlap, bestEnl, bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, overlapDelta, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := 0.0, 0.0
	for i, e := range n.Children {
		enl := e.MBR.Enlargement(r)
		area := e.MBR.Area()
		if i == 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// less3 compares (a1,a2,a3) < (b1,b2,b3) lexicographically.
func less3(a1, a2, a3, b1, b2, b3 float64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

// splitNode splits the overfull node n (stored at page id) with the R* split
// and returns the entry for the new sibling page.
func (t *Tree) splitNode(id storage.PageID, n *Node) (*ChildEntry, error) {
	split := chooseSplit
	if t.cfg.SplitPolicy == SplitLinear {
		split = chooseSplitLinear
	}
	var sibling *Node
	if n.Leaf {
		minFill := t.minLeaf
		rects := make([]geom.Rect, n.NumPoints())
		for i := range rects {
			rects[i] = geom.RectFromPoint(n.PointAt(i))
		}
		leftIdx, rightIdx := split(rects, minFill)
		left := make([]PointEntry, 0, len(leftIdx))
		right := make([]PointEntry, 0, len(rightIdx))
		for _, i := range leftIdx {
			left = append(left, n.EntryAt(i))
		}
		for _, i := range rightIdx {
			right = append(right, n.EntryAt(i))
		}
		n.SetPoints(left)
		sibling = NewLeaf(right)
	} else {
		minFill := t.minChild
		rects := make([]geom.Rect, len(n.Children))
		for i, e := range n.Children {
			rects[i] = e.MBR
		}
		leftIdx, rightIdx := split(rects, minFill)
		left := make([]ChildEntry, 0, len(leftIdx))
		right := make([]ChildEntry, 0, len(rightIdx))
		for _, i := range leftIdx {
			left = append(left, n.Children[i])
		}
		for _, i := range rightIdx {
			right = append(right, n.Children[i])
		}
		n.Children = left
		sibling = &Node{Children: right}
	}
	if err := t.writeNode(id, n); err != nil {
		return nil, err
	}
	sibID, err := t.allocNode(sibling)
	if err != nil {
		return nil, err
	}
	return &ChildEntry{MBR: sibling.MBR(), Child: sibID}, nil
}
