package rcj

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// ErrMonitorDelete is returned by Monitor.Delete: deletion maintenance is
// unsupported by design (a removal can revive pairs between arbitrarily
// distant points, so no local search bounds the affected set). Rebuild the
// monitor over the surviving points instead; live-index subscriptions do
// exactly that and emit a resync event.
var ErrMonitorDelete = core.ErrMonitorDelete

// Monitor maintains a ring-constrained join incrementally as new points
// arrive — the planning workflow where facilities open over time and the
// set of fair middleman locations must stay current without recomputing
// the join from scratch.
//
// Insertions are exact: AddP/AddQ return precisely the pairs created and
// invalidated. Deletions are not supported (a removal can revive pairs
// between arbitrarily distant points, defeating local maintenance); rebuild
// the monitor instead.
//
// The monitor takes over its indexes: after NewMonitor, mutate the datasets
// only through AddP/AddQ.
type Monitor struct {
	m *core.Monitor
}

// NewMonitor computes the initial join between the datasets of q and p and
// returns a monitor maintaining it; the same index twice maintains the
// self-join of one dataset (postboxes-style, pairs canonical: P.ID < Q.ID).
// The monitor inserts into the indexes' own trees, so both must be immutable
// (ErrMutableIndex otherwise): a mutable index is watched with SubscribeLive
// instead.
func NewMonitor(q, p *Index) (*Monitor, error) {
	if q.live != nil || p.live != nil {
		return nil, ErrMutableIndex
	}
	cm, err := core.NewMonitor(q.tree, p.tree)
	if err != nil {
		return nil, err
	}
	return &Monitor{m: cm}, nil
}

// Len returns the current number of pairs.
func (mo *Monitor) Len() int { return mo.m.Len() }

// Pairs returns a snapshot of the current result set (unspecified order).
func (mo *Monitor) Pairs() []Pair { return fromCorePairs(mo.m.Pairs()) }

// AddP inserts a new point into dataset P, returning the pairs the
// insertion created and the pairs it invalidated.
func (mo *Monitor) AddP(p Point) (added, removed []Pair, err error) {
	a, r, err := mo.m.AddP(geom.Point{X: p.X, Y: p.Y}, p.ID)
	return convertPairs(a), convertPairs(r), err
}

// AddQ inserts a new point into dataset Q (equivalent to AddP for a
// self-monitor).
func (mo *Monitor) AddQ(q Point) (added, removed []Pair, err error) {
	a, r, err := mo.m.AddQ(geom.Point{X: q.X, Y: q.Y}, q.ID)
	return convertPairs(a), convertPairs(r), err
}

// Delete always fails with ErrMonitorDelete; it makes the no-deletion
// contract typed and testable instead of a silently missing method.
func (mo *Monitor) Delete(p Point) error {
	return mo.m.Delete(geom.Point{X: p.X, Y: p.Y}, p.ID)
}

func convertPairs(raw []core.Pair) []Pair {
	if raw == nil {
		return nil
	}
	return fromCorePairs(raw)
}
