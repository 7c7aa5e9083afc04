package core

import (
	"errors"
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// This file is the predicate-pushdown layer of the executor. The constrained
// browsing scenarios of Section 1 (tourist: ascending ring diameter;
// school-bus: ranked subsets) never need the full join, so the query
// predicates of Options — MaxDiameter, MinDistance, Region, TopK, Limit —
// are pushed into the filter traversal instead of applied to materialized
// results:
//
//   - MaxDiameter bounds the pair distance directly (a two-point enclosing
//     circle's diameter IS the distance between the points), so the filter's
//     ascending-distance traversal terminates the moment it pops an item
//     that no query point of the batch can reach within the bound, and
//     before that drops TP subtrees whose min distance to every query point
//     exceeds it.
//   - TopK runs branch-and-bound: a bounded pair-heap of the k best pairs
//     seen so far publishes its current k-th diameter as a dynamic
//     MaxDiameter that tightens mid-traversal.
//   - Region prunes TP subtrees whose midpoint rect with the query point —
//     the set of circle centers the subtree can produce — misses the window,
//     and outer TQ subtrees likewise (exec.go's outerSkip), or beyond the
//     window's reach under a MaxDiameter. A window has a diameter bound of
//     its own, which the executor derives when MaxDiameter is zero
//     (RegionDiameter).
//   - Limit stops the whole traversal once enough pairs have been emitted.
//
// Pruning never drops a qualifying pair: the distance bound is monotone
// along the traversal order, a point excluded by MinDistance/Region still
// installs its Ψ− pruner (the join predicate is independent of the query
// predicates), and verification always runs against the full trees.

// errLimitReached aborts the traversal once Limit pairs have been emitted.
// It is an internal control-flow sentinel, mapped to a clean completion
// before execute returns.
var errLimitReached = errors.New("core: result limit reached")

// Predicate names one pair-level predicate for Options.PredicateOrder.
type Predicate uint8

const (
	// PredDiameter is the diameter bound: static MaxDiameter intersected
	// with a TopK run's dynamic bound.
	PredDiameter Predicate = iota + 1
	// PredMinDistance is the MinDistance floor.
	PredMinDistance
	// PredRegion is the Region window test on the circle center.
	PredRegion
)

// defaultPredicateOrder is the historical evaluation order, used when
// Options.PredicateOrder is empty.
var defaultPredicateOrder = [3]Predicate{PredDiameter, PredMinDistance, PredRegion}

// compilePredOrder resolves the run's pair-predicate evaluation order:
// the planner-chosen order when given (completed with any predicates it
// omitted, so a partial order can never drop a check), the default
// otherwise. Order affects only which test rejects a pair first — the
// predicates are a conjunction, so the admitted set is identical for every
// order.
func compilePredOrder(opts Options) [3]Predicate {
	if len(opts.PredicateOrder) == 0 {
		return defaultPredicateOrder
	}
	var out [3]Predicate
	n := 0
	seen := [4]bool{}
	add := func(p Predicate) {
		if p >= PredDiameter && p <= PredRegion && !seen[p] && n < 3 {
			seen[p] = true
			out[n] = p
			n++
		}
	}
	for _, p := range opts.PredicateOrder {
		add(p)
	}
	for _, p := range defaultPredicateOrder {
		add(p)
	}
	return out
}

// hasPredicates reports whether any pushdown predicate is set.
func (o Options) hasPredicates() bool {
	return o.MaxDiameter > 0 || o.MinDistance > 0 || o.Region != nil || o.TopK > 0 || o.Limit > 0
}

// newTopK compiles a TopK run's ranking, or returns nil without TopK. TopK
// subsumes Limit: the k tightest pairs truncated to Limit are the
// min(k, Limit) tightest. With a Weight function the ranking flips to
// descending combined endpoint weight (the school-bus scenario) and the
// dynamic bound becomes a score floor instead of a diameter ceiling.
func newTopK(opts Options) *topkState {
	if opts.TopK <= 0 {
		return nil
	}
	k := opts.TopK
	if opts.Limit > 0 && opts.Limit < k {
		k = opts.Limit
	}
	t := &topkState{weight: opts.Weight, diam: math.Inf(1), score: math.Inf(-1)}
	if t.weight != nil {
		t.h = pairHeap{k: k, before: weightBefore(t.weight)}
	} else {
		t.h = pairHeap{k: k, before: pairBefore}
	}
	return t
}

// topkState is the bounded pair-heap of a TopK run. Its current k-th
// diameter is kept in diam, the tightest bound the filter traversal reads —
// the branch-and-bound of the paper's browsing scenario.
//
// A weight-ranked run (weight != nil) keeps the k best pairs by descending
// combined endpoint weight instead. Diameter no longer orders the heap, so
// diam stays +Inf (the traversal's distance bound is only the static
// MaxDiameter); the dynamic bound is the k-th combined score, kept in
// score: once the heap is full, a pair whose combined weight is strictly
// below it can never enter the ranking and is dropped by the filter.
type topkState struct {
	diam   float64 // current diameter bound: wider pairs cannot enter; +Inf until the heap fills
	score  float64 // weight-ranked runs: the k-th combined score; -Inf until full
	weight func(rtree.PointEntry) float64
	h      pairHeap
}

// offer submits one verified pair. The heap keeps the k best under the
// deterministic ranking order; whenever the k-th pair improves, the bound
// tightens.
func (t *topkState) offer(p Pair) {
	if t.h.offer(p) && t.h.full() {
		w := t.h.worst()
		if t.weight != nil {
			t.score = t.weight(w.P) + t.weight(w.Q)
		} else {
			t.diam = 2 * w.Circle.Radius
		}
	}
}

// pairHeap keeps the k best pairs under before (a strict total order, best
// first): a max-heap with the worst retained pair on top, ready for
// eviction.
type pairHeap struct {
	k      int
	before func(a, b Pair) bool
	h      []Pair
}

// full reports whether the heap holds k pairs, i.e. worst is the current
// k-th best and can serve as a pruning bound.
func (t *pairHeap) full() bool { return len(t.h) == t.k }

// worst returns the worst retained pair (the k-th best once full). It
// panics on an empty heap.
func (t *pairHeap) worst() Pair { return t.h[0] }

// offer submits one pair, evicting the current worst if x beats it. It
// reports whether the retained set changed — when full, that means the k-th
// best improved and any published bound should tighten.
func (t *pairHeap) offer(x Pair) bool {
	if len(t.h) < t.k {
		t.h = append(t.h, x)
		t.up(len(t.h) - 1)
		return true
	}
	if !t.before(x, t.h[0]) {
		return false
	}
	t.h[0] = x
	t.down(0)
	return true
}

// sorted drains the heap, returning the retained pairs best-first.
func (t *pairHeap) sorted() []Pair {
	out := make([]Pair, len(t.h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = t.h[0]
		last := len(t.h) - 1
		t.h[0] = t.h[last]
		t.h = t.h[:last]
		t.down(0)
	}
	return out
}

// up/down sift under the max-heap invariant: a parent is never before its
// children.
func (t *pairHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(t.h[parent], t.h[i]) {
			return
		}
		t.h[parent], t.h[i] = t.h[i], t.h[parent]
		i = parent
	}
}

func (t *pairHeap) down(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(t.h) && t.before(t.h[worst], t.h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(t.h) && t.before(t.h[worst], t.h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// pairBefore is the deterministic ranking order of constrained queries:
// ascending circle radius, ties broken by (P.ID, Q.ID). It matches the
// public SortPairsByDiameter order, so "TopK" means exactly "the first k of
// the sorted unconstrained join".
func pairBefore(a, b Pair) bool {
	if a.Circle.Radius != b.Circle.Radius {
		return a.Circle.Radius < b.Circle.Radius
	}
	if a.P.ID != b.P.ID {
		return a.P.ID < b.P.ID
	}
	return a.Q.ID < b.Q.ID
}

// weightBefore is the deterministic ranking order of a weight-ranked top-k
// run: descending combined endpoint weight, ties broken by the diameter
// ranking. It matches the public RankPairsByWeight order, so a weighted
// "TopK" is exactly the head of that sort over the unconstrained join.
func weightBefore(w func(rtree.PointEntry) float64) func(a, b Pair) bool {
	return func(a, b Pair) bool {
		sa, sb := w(a.P)+w(a.Q), w(b.P)+w(b.Q)
		if sa != sb {
			return sa > sb
		}
		return pairBefore(a, b)
	}
}

// boundSlack widens the traversal-level distance-bound checks outward:
// those derive item distances with math.Sqrt of a squared distance, while
// the bound itself comes from math.Hypot (2·Circle.Radius = Point.Dist),
// and the two can disagree by an ulp or two at an exact tie. Under-pruning
// by this sliver is free — admitPair, which compares Hypot against Hypot
// exactly, is the final authority on every candidate — whereas over-pruning
// a boundary tie would break the post-filter set identity. A relative 1e-9
// dwarfs any such rounding disagreement.
const boundSlack = 1 + 1e-9

// squaredBound returns (bound·boundSlack)², the bulk filter's square-root-
// free pre-test of a pair against the bound: dx²+dy² above it means
// math.Hypot is above the bound too. Both sides lie within a few ulps of
// the true squares, which the slack (2e-9 once squared) dwarfs, so the
// pre-test drops only pairs the exact d > bound would drop. Subnormal
// squares round absolutely, not relatively, so below the smallest normal
// float64 the pre-test is off (+Inf).
func squaredBound(bound float64) float64 {
	l := bound * boundSlack
	if l2 := l * l; l2 >= 0x1p-1022 {
		return l2
	}
	return math.Inf(1)
}

// maxPairDiameter returns the upper bound on an admissible pair's diameter
// (= the distance between its two points): the static MaxDiameter
// intersected with the TopK heap's dynamic bound. +Inf when unconstrained.
// Only pairs STRICTLY beyond the bound are inadmissible, keeping ties with
// the current k-th pair alive for the ID tiebreak; traversal checks widen
// it by boundSlack (see there).
func (j *joiner) maxPairDiameter() float64 {
	d := math.Inf(1)
	if j.opts.MaxDiameter > 0 {
		d = j.opts.MaxDiameter
	}
	if j.topk != nil && j.topk.diam < d {
		d = j.topk.diam
	}
	return d
}

// admitPair applies every pair-level predicate to a prospective pair: the
// diameter bound (static and dynamic), the minimum distance, and the region
// window on the circle center (the midpoint of the two points). Runs with
// no predicates skip the distance computation entirely.
func (j *joiner) admitPair(a, b rtree.PointEntry) bool {
	if !j.opts.hasPredicates() {
		return true
	}
	return j.admitPairDist(a.P.Dist(b.P), a, b)
}

// admitPairDist is admitPair for callers that already hold the pair's exact
// (math.Hypot) distance — the bulk filter computes it for the bound check
// and must not pay the square root twice per (leaf point × query point).
// Predicates run in the plan's evaluation order (most selective first when
// the planner ordered them); the predicates are a conjunction, so the
// admitted set is identical for every order. A weight-ranked top-k run
// additionally kills pairs whose combined score is strictly below the
// heap's current k-th score — they can never displace a ranked pair.
func (j *joiner) admitPairDist(d float64, a, b rtree.PointEntry) bool {
	for _, pred := range j.predOrder {
		switch pred {
		case PredDiameter:
			if d > j.maxPairDiameter() {
				return false
			}
		case PredMinDistance:
			if j.opts.MinDistance > 0 && d < j.opts.MinDistance {
				return false
			}
		case PredRegion:
			if r := j.opts.Region; r != nil && !r.ContainsPoint(a.P.Mid(b.P)) {
				return false
			}
		}
	}
	if t := j.topk; t != nil && t.weight != nil && t.weight(a)+t.weight(b) < t.score {
		return false
	}
	return true
}

// regionPrunesRect reports whether the Region window rules out every pair of
// the query point q with a point inside rect: the candidate circle centers
// are the midpoints, which form rect shrunk toward q by half — a window
// disjoint from that midpoint rect can produce no qualifying center.
func (j *joiner) regionPrunesRect(q geom.Point, rect geom.Rect) bool {
	r := j.opts.Region
	if r == nil || rect.IsEmpty() {
		return false
	}
	mid := geom.Rect{
		MinX: (rect.MinX + q.X) / 2,
		MinY: (rect.MinY + q.Y) / 2,
		MaxX: (rect.MaxX + q.X) / 2,
		MaxY: (rect.MaxY + q.Y) / 2,
	}
	return !mid.Intersects(*r)
}
