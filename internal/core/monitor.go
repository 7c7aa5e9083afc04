package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Monitor maintains a ring-constrained join result incrementally under
// point insertions and deletions — the facility-planning setting where
// restaurants and residences open and close over time and the set of fair
// middleman locations must stay current without recomputing the join.
//
// Both kinds of change are exact and local. Inserting or deleting a point x
// changes only the pairs with x as an endpoint and the pairs whose ring
// covers x, and both endpoints of a pair of the second kind are Delaunay
// neighbours of x: if x is the only point in the ring of (p, q), the circle
// through p and x that touches the ring at p holds no other point (Gabriel
// & Sokal 1969; Devillers, "On deletion in Delaunay triangulations", SoCG
// 1999). So, over a superset N(x) of those neighbours (see neighbours):
//
//   - an insert kills the pairs of N(x) whose ring covers x, and adds the
//     pairs of x with N(x) that VerifyPair accepts (a valid pair's disc is
//     empty, so it is a Gabriel, hence Delaunay, edge);
//   - a delete drops x's pairs and revives every absent pair inside N(x)
//     whose ring covers x and which VerifyPair accepts without x.
//
// Every keep or kill decision is geom.DiscSign, the join's own exact
// closed-disc test, so the result stays exact as long as N(x) is a
// superset.
type Monitor struct {
	tp, tq *rtree.Tree
	self   bool
	pairs  map[monitorKey]Pair
	byEnd  map[endpoint][]monitorKey // each point's current pairs
}

type monitorKey struct {
	pid, qid int64
}

// endpoint names a point by side and ID (P and Q have independent ID
// namespaces; a self-join's points are all on side P).
type endpoint struct {
	id int64
	q  bool
}

// neighbour is one point of N(x), tagged with its side.
type neighbour struct {
	rtree.PointEntry
	q bool
}

// NewMonitor computes the initial join of the two trees and prepares the
// incremental state. The trees must be the Monitor's to mutate from now on
// (change their points only through its Add and Delete methods). For a
// self-join pass the same tree twice.
func NewMonitor(tq, tp *rtree.Tree) (*Monitor, error) {
	m := &Monitor{
		tp:    tp,
		tq:    tq,
		self:  tp == tq,
		pairs: make(map[monitorKey]Pair),
		byEnd: make(map[endpoint][]monitorKey),
	}
	pairs, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, SelfJoin: m.self, Collect: true})
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		m.addPair(p)
	}
	return m, nil
}

// Len returns the current number of pairs.
func (m *Monitor) Len() int { return len(m.pairs) }

// Pairs returns a snapshot of the current result set (unspecified order).
func (m *Monitor) Pairs() []Pair {
	out := make([]Pair, 0, len(m.pairs))
	for _, p := range m.pairs {
		out = append(out, p)
	}
	return out
}

// AddP registers a new point in dataset P, returning the pairs the
// insertion created and the pairs it invalidated.
func (m *Monitor) AddP(p geom.Point, id int64) (added, removed []Pair, err error) {
	return m.add(p, id, false)
}

// AddQ registers a new point in dataset Q.
func (m *Monitor) AddQ(q geom.Point, id int64) (added, removed []Pair, err error) {
	return m.add(q, id, !m.self)
}

// DeleteP removes the point id at p from dataset P, returning the pairs the
// deletion revived and the pairs it dropped.
func (m *Monitor) DeleteP(p geom.Point, id int64) (added, removed []Pair, err error) {
	return m.delete(p, id, false)
}

// DeleteQ removes the point id at q from dataset Q.
func (m *Monitor) DeleteQ(q geom.Point, id int64) (added, removed []Pair, err error) {
	return m.delete(q, id, !m.self)
}

func (m *Monitor) tree(inQ bool) *rtree.Tree {
	if inQ {
		return m.tq
	}
	return m.tp
}

func (m *Monitor) add(x geom.Point, id int64, inQ bool) (added, removed []Pair, err error) {
	nb, err := m.neighbours(x)
	if err != nil {
		return nil, nil, err
	}
	// Kill the neighbours' pairs whose ring covers the new point.
	var killed []monitorKey
	for _, n := range nb {
		for _, k := range m.byEnd[endpoint{n.ID, n.q}] {
			if pair := m.pairs[k]; geom.DiscSign(pair.P.P, pair.Q.P, x) <= 0 {
				killed = append(killed, k)
			}
		}
	}
	for _, k := range killed {
		if pair, ok := m.pairs[k]; ok { // reached from both endpoints
			m.removePair(pair)
			removed = append(removed, pair)
		}
	}
	if err := m.tree(inQ).Insert(x, id); err != nil {
		return nil, nil, err
	}
	// The new point's own pairs have empty diametral discs, so they are
	// Gabriel, hence Delaunay, edges: their partners are in N(x) too.
	self := neighbour{rtree.PointEntry{P: x, ID: id}, inQ}
	for _, n := range nb {
		pair, ok, err := m.offer(self, n)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			added = append(added, pair)
		}
	}
	return added, removed, nil
}

func (m *Monitor) delete(x geom.Point, id int64, inQ bool) (added, removed []Pair, err error) {
	for _, k := range append([]monitorKey(nil), m.byEnd[endpoint{id, inQ}]...) {
		pair := m.pairs[k]
		m.removePair(pair)
		removed = append(removed, pair)
	}
	found, err := m.tree(inQ).Delete(x, id)
	if err != nil {
		return nil, nil, err
	}
	if !found {
		return nil, nil, fmt.Errorf("core: monitor deletes unknown point %d at %v", id, x)
	}
	// Revive the neighbour pairs whose ring the point alone blocked.
	nb, err := m.neighbours(x)
	if err != nil {
		return nil, nil, err
	}
	for i, a := range nb {
		for _, b := range nb[i+1:] {
			if geom.DiscSign(a.P, b.P, x) > 0 {
				continue
			}
			pair, ok, err := m.offer(a, b)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				added = append(added, pair)
			}
		}
	}
	return added, removed, nil
}

// offer adds the pair of a and b if it is one — bichromatic, or two
// points of a self-join — that is absent and that VerifyPair accepts on the
// current trees.
func (m *Monitor) offer(a, b neighbour) (Pair, bool, error) {
	p, q := a.PointEntry, b.PointEntry
	switch {
	case m.self && p.ID > q.ID:
		p, q = q, p
	case !m.self && a.q == b.q:
		return Pair{}, false, nil
	case !m.self && a.q:
		p, q = q, p
	}
	if _, ok := m.pairs[monitorKey{p.ID, q.ID}]; ok {
		return Pair{}, false, nil
	}
	ok, err := VerifyPair(m.tq, m.tp, p, q, Options{SelfJoin: m.self})
	if err != nil || !ok {
		return Pair{}, false, err
	}
	pair := Pair{P: p, Q: q, Circle: geom.EnclosingCircle(p.P, q.P)}
	m.addPair(pair)
	return pair, true, nil
}

// neighbours returns N(x), a superset of x's Delaunay neighbours among the
// points of both trees (x itself must not be in them). It clips x's Voronoi
// cell, which starts as the data box grown by its diagonal, by the bisector
// of every point in distance order (merged INN scans over both trees), and
// keeps each point whose bisector reaches the cell. Both the clip and the
// keep test are widened by a slack in squared distance at the scale of
// coordinate rounding, so the cell only ever over-approximates and
// near-ties are kept; points at x's exact coordinates
// are always kept. The scan stops once the next point is too far for its
// bisector to reach the cell: farther than twice the farthest cell vertex
// (plus the slack's square root).
func (m *Monitor) neighbours(x geom.Point) ([]neighbour, error) {
	type scan struct {
		it   *rtree.INNIterator
		head neighbour
		d2   float64
		ok   bool
	}
	box := geom.RectFromPoint(x)
	var scans []*scan
	for i, t := range []*rtree.Tree{m.tp, m.tq} {
		if t.Size() == 0 || (i == 1 && m.self) {
			continue
		}
		mbr, err := t.RootMBR()
		if err != nil {
			return nil, err
		}
		box = box.Union(mbr)
		sc := &scan{it: t.NewINNIterator(x), head: neighbour{q: i == 1}}
		sc.head.PointEntry, sc.d2, sc.ok = sc.it.Next()
		scans = append(scans, sc)
	}
	// The slack covers the rounding of coordinates as large as maxAbs, in
	// vectors as long as the grown box (the rings themselves are decided
	// exactly, by DiscSign).
	diag := math.Hypot(box.MaxX-box.MinX, box.MaxY-box.MinY)
	maxAbs := max(-box.MinX, box.MaxX, -box.MinY, box.MaxY)
	slack := 0x1p-40 * maxAbs * diag

	// The cell, in coordinates relative to x; the grown box holds every
	// ring of the data, so it holds every witness the lemma needs.
	lo := geom.Point{X: box.MinX - diag - x.X, Y: box.MinY - diag - x.Y}
	hi := geom.Point{X: box.MaxX + diag - x.X, Y: box.MaxY + diag - x.Y}
	cell := []geom.Point{lo, {X: hi.X, Y: lo.Y}, hi, {X: lo.X, Y: hi.Y}}
	var spare []geom.Point
	var out []neighbour
	for {
		var next *scan
		for _, sc := range scans {
			if sc.ok && (next == nil || sc.d2 < next.d2) {
				next = sc
			}
		}
		if next == nil {
			break
		}
		reach := 0.0 // squared distance of the farthest cell vertex
		for _, v := range cell {
			reach = max(reach, v.Dot(v))
		}
		if stop := 2*math.Sqrt(reach) + math.Sqrt(slack); next.d2 > stop*stop {
			break
		}
		n, d2 := next.head, next.d2
		next.head.PointEntry, next.d2, next.ok = next.it.Next()

		// Keep y if some cell vertex v is at least as close to y as to x,
		// within the slack: v·y ≥ (|y|² − slack)/2.
		y := n.P.Sub(x)
		far := math.Inf(-1)
		for _, v := range cell {
			far = max(far, v.Dot(y))
		}
		if 2*far < d2-slack {
			continue
		}
		out = append(out, n)

		// Clip the cell to v·y ≤ (|y|² + slack)/2.
		b := (d2 + slack) / 2
		if far <= b {
			continue
		}
		spare = spare[:0]
		for i, u := range cell {
			v := cell[(i+1)%len(cell)]
			su, sv := u.Dot(y)-b, v.Dot(y)-b
			if su <= 0 {
				spare = append(spare, u)
			}
			if (su < 0 && sv > 0) || (su > 0 && sv < 0) {
				t := su / (su - sv)
				spare = append(spare, geom.Point{X: u.X + t*(v.X-u.X), Y: u.Y + t*(v.Y-u.Y)})
			}
		}
		cell, spare = spare, cell
	}
	for _, sc := range scans {
		if err := sc.it.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (m *Monitor) addPair(p Pair) {
	key := monitorKey{pid: p.P.ID, qid: p.Q.ID}
	m.pairs[key] = p
	for _, e := range m.ends(p) {
		m.byEnd[e] = append(m.byEnd[e], key)
	}
}

func (m *Monitor) removePair(p Pair) {
	key := monitorKey{pid: p.P.ID, qid: p.Q.ID}
	delete(m.pairs, key)
	for _, e := range m.ends(p) {
		if ks := slices.DeleteFunc(m.byEnd[e], func(k monitorKey) bool { return k == key }); len(ks) > 0 {
			m.byEnd[e] = ks
		} else {
			delete(m.byEnd, e)
		}
	}
}

// ends returns a pair's two endpoints.
func (m *Monitor) ends(p Pair) [2]endpoint {
	return [2]endpoint{{p.P.ID, false}, {p.Q.ID, !m.self}}
}
