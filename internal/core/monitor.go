package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ErrMonitorDelete is returned by Monitor.Delete: deletion maintenance is
// unsupported by design, not by omission. Removing a point can revive pairs
// between arbitrarily distant points (RCJ pairs obey no distance bound, the
// paper's Figure 1), so no local search bounds the affected set; callers
// must rebuild with NewMonitor over the surviving points instead.
var ErrMonitorDelete = errors.New("core: monitor does not support deletion; rebuild with NewMonitor")

// Monitor maintains a ring-constrained join result incrementally under
// point insertions — the facility-planning setting where new restaurants
// and residences appear over time and the set of fair middleman locations
// must stay current without recomputing the join.
//
// Insertion maintenance is exact and local:
//
//   - A new point can only *invalidate* existing pairs (their circle now
//     covers it) and *create* pairs involving itself (an empty circle
//     between two old points stays empty). Killed pairs are found with a
//     stabbing query over the current circles; new pairs with one filter +
//     verification pass for the new point.
//
// Deletion maintenance is not supported: removing a point can revive pairs
// between arbitrarily distant points (the paper's Figure 1 shows RCJ pairs
// obey no distance bound), so no local search bounds the affected set;
// rebuild with NewMonitor after bulk deletions.
//
// The stabbing index buckets circles into power-of-two radius bands, each
// band an in-memory R-tree over circle centers: a point x can only be
// covered by a band-b circle whose center lies within band b's maximum
// radius of x, so each band answers with one circle range search.
type Monitor struct {
	tp, tq   *rtree.Tree
	self     bool
	pairs    map[int64]Pair // by internal pair id
	byKey    map[monitorKey]int64
	bands    map[int]*band
	nextID   int64
	pageSize int
}

type monitorKey struct {
	pid, qid int64
}

// band is one radius bucket of the stabbing index.
type band struct {
	maxRadius float64
	tree      *rtree.Tree
}

const minBandRadius = 1e-6

// bandFor returns the band index whose (2^(b-1), 2^b]·minBandRadius range
// contains r.
func bandFor(r float64) int {
	if r <= minBandRadius {
		return 0
	}
	return 1 + int(math.Floor(math.Log2(r/minBandRadius)))
}

// bandMaxRadius returns the largest circle radius band b may hold.
func bandMaxRadius(b int) float64 {
	if b == 0 {
		return minBandRadius
	}
	return minBandRadius * math.Pow(2, float64(b))
}

// NewMonitor computes the initial join of the two trees and prepares the
// incremental state. The trees must be the Monitor's to mutate from now on
// (register new points only through AddP/AddQ). For a self-join pass the
// same tree twice.
func NewMonitor(tq, tp *rtree.Tree) (*Monitor, error) {
	m := &Monitor{
		tp:       tp,
		tq:       tq,
		self:     tp == tq,
		pairs:    make(map[int64]Pair),
		byKey:    make(map[monitorKey]int64),
		bands:    make(map[int]*band),
		pageSize: storage.DefaultPageSize,
	}
	pairs, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, SelfJoin: m.self, Collect: true})
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		if err := m.addPair(p); err != nil {
			return nil, err
		}
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
	return m.add(p, id, true)
}

// AddQ registers a new point in dataset Q.
func (m *Monitor) AddQ(q geom.Point, id int64) (added, removed []Pair, err error) {
	if m.self {
		return m.add(q, id, true)
	}
	return m.add(q, id, false)
}

// Delete always fails with ErrMonitorDelete. It exists so the no-deletion
// constraint is a typed, testable contract rather than a missing method:
// callers that need deletions (the live-index subscription path) catch this
// error and re-seed a fresh monitor from the surviving point set.
func (m *Monitor) Delete(geom.Point, int64) error { return ErrMonitorDelete }

func (m *Monitor) add(pt geom.Point, id int64, intoP bool) (added, removed []Pair, err error) {
	// 1. Kill existing pairs whose circle covers the new point.
	killed, err := m.stab(pt)
	if err != nil {
		return nil, nil, err
	}
	for _, pid := range killed {
		pair := m.pairs[pid]
		if err := m.removePair(pid); err != nil {
			return nil, nil, err
		}
		removed = append(removed, pair)
	}

	// 2. Insert the point into its tree.
	target := m.tp
	if !intoP {
		target = m.tq
	}
	if err := target.Insert(pt, id); err != nil {
		return nil, nil, err
	}

	// 3. Compute the new point's own pairs: run the pipeline on a one-point batch with
	// the new point as the query and the *other* tree as the candidate
	// source. The joiner's P/Q roles are swapped accordingly; orientation
	// is restored before storing.
	queryTree, candTree := m.tq, m.tp
	if intoP && !m.self {
		queryTree, candTree = m.tp, m.tq
	}
	sub := &joiner{tq: queryTree, tp: candTree, opts: Options{SelfJoin: m.self, Collect: true}}
	if err := sub.joinBatch([]rtree.PointEntry{{P: pt, ID: id}}); err != nil {
		return nil, nil, err
	}
	for _, raw := range sub.out {
		pair := raw
		if intoP && !m.self {
			// The sub-joiner treated the new P point as its "Q" query and
			// drew candidates from Q as its "P" side; swap back.
			pair = Pair{P: raw.Q, Q: raw.P, Circle: raw.Circle}
		}
		if m.self && pair.P.ID > pair.Q.ID {
			pair.P, pair.Q = pair.Q, pair.P
		}
		if err := m.addPair(pair); err != nil {
			return nil, nil, err
		}
		added = append(added, pair)
	}
	return added, removed, nil
}

// stab returns the internal ids of all current pairs whose circle covers x.
func (m *Monitor) stab(x geom.Point) ([]int64, error) {
	var out []int64
	for b, bd := range m.bands {
		probe := geom.Circle{Center: x, Radius: bandMaxRadius(b)}
		cands, err := bd.tree.CircleSearch(probe)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			pair, ok := m.pairs[c.ID]
			if !ok {
				return nil, fmt.Errorf("core: stabbing index holds unknown pair %d", c.ID)
			}
			if pair.Circle.Covers(x) {
				out = append(out, c.ID)
			}
		}
	}
	return out, nil
}

func (m *Monitor) addPair(p Pair) error {
	key := monitorKey{pid: p.P.ID, qid: p.Q.ID}
	if _, dup := m.byKey[key]; dup {
		return nil
	}
	id := m.nextID
	m.nextID++
	m.pairs[id] = p
	m.byKey[key] = id
	b := bandFor(p.Circle.Radius)
	bd, ok := m.bands[b]
	if !ok {
		pager := storage.NewMemPager(m.pageSize)
		tree, err := rtree.New(pager, buffer.NewPool(-1), rtree.Config{PageSize: m.pageSize})
		if err != nil {
			return err
		}
		bd = &band{maxRadius: bandMaxRadius(b), tree: tree}
		m.bands[b] = bd
	}
	return bd.tree.Insert(p.Circle.Center, id)
}

func (m *Monitor) removePair(id int64) error {
	p, ok := m.pairs[id]
	if !ok {
		return fmt.Errorf("core: removing unknown pair %d", id)
	}
	delete(m.pairs, id)
	delete(m.byKey, monitorKey{pid: p.P.ID, qid: p.Q.ID})
	bd := m.bands[bandFor(p.Circle.Radius)]
	if bd == nil {
		return fmt.Errorf("core: pair %d missing from stabbing index", id)
	}
	found, err := bd.tree.Delete(p.Circle.Center, id)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: pair %d center not in its band tree", id)
	}
	return nil
}
