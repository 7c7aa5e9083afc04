package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// postFilter applies the query predicates of opts to an unconstrained result
// set, mirroring admitPair/pairBefore exactly — the oracle the pushdown is
// validated against.
func postFilter(pairs []Pair, opts Options) []Pair {
	return postFilterDist(pairs, opts, geom.Point.Dist)
}

// postFilterDist is postFilter with the diameter measured by dist.
func postFilterDist(pairs []Pair, opts Options, dist func(a, b geom.Point) float64) []Pair {
	var out []Pair
	for _, p := range pairs {
		d := dist(p.P.P, p.Q.P)
		if opts.MaxDiameter > 0 && d > opts.MaxDiameter {
			continue
		}
		if opts.MinDistance > 0 && d < opts.MinDistance {
			continue
		}
		if opts.Region != nil && !opts.Region.ContainsPoint(p.P.P.Mid(p.Q.P)) {
			continue
		}
		out = append(out, p)
	}
	if opts.TopK > 0 {
		sort.Slice(out, func(i, j int) bool { return pairBefore(out[i], out[j]) })
		k := opts.TopK
		if opts.Limit > 0 && opts.Limit < k {
			k = opts.Limit
		}
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// predicateCases enumerates the predicate combinations the equivalence tests
// sweep. The bounds are sized for the 10000² test universe.
func predicateCases() []Options {
	region := &geom.Rect{MinX: 2000, MinY: 2000, MaxX: 7000, MaxY: 7000}
	return []Options{
		{MaxDiameter: 400},
		{MinDistance: 250},
		{Region: region},
		{TopK: 7},
		{TopK: 25},
		{MaxDiameter: 900, Region: region},
		{TopK: 5, Region: region},
		{TopK: 10, MaxDiameter: 600, MinDistance: 100},
		{MaxDiameter: 500, MinDistance: 200, Region: region},
	}
}

// TestQueryPredicateEquivalence checks that every predicate combination,
// under every algorithm, two-set and self-join, returns exactly the
// post-filtered unconstrained result.
func TestQueryPredicateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ps := randomPoints(rng, 400)
	qs := clusteredPoints(rng, 400, 6, 700)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	for _, self := range []bool{false, true} {
		outer, inner := tq, tp
		if self {
			outer, inner = tp, tp
		}
		full, _, err := Join(outer, inner, Options{Algorithm: AlgOBJ, SelfJoin: self, Collect: true})
		if err != nil {
			t.Fatalf("unconstrained join: %v", err)
		}
		for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ, AlgBrute} {
			for ci, pred := range predicateCases() {
				opts := pred
				opts.Algorithm = alg
				opts.SelfJoin = self
				opts.Collect = true
				got, st, err := Join(outer, inner, opts)
				if err != nil {
					t.Fatalf("%v self=%v case=%d: %v", alg, self, ci, err)
				}
				want := postFilter(full, opts)
				label := fmt.Sprintf("%v self=%v case=%d", alg, self, ci)
				diffPairs(t, label, want, got)
				if st.Results != int64(len(got)) {
					t.Errorf("%s: Stats.Results = %d, want %d", label, st.Results, len(got))
				}
				if opts.TopK > 0 {
					// TopK output is the ranking order, deterministically.
					for i := 1; i < len(got); i++ {
						if pairBefore(got[i], got[i-1]) {
							t.Errorf("%s: top-k output not in ranking order at %d", label, i)
						}
					}
				}
			}
		}
	}
}

// TestQueryLimit checks that Limit returns a subset of the unconstrained
// result of exactly min(Limit, total) pairs, and that a satisfied limit is a
// clean (error-free) early stop.
func TestQueryLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := randomPoints(rng, 300)
	qs := randomPoints(rng, 300)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	full, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	fullSet := pairSet(full)
	for _, alg := range []Algorithm{AlgINJ, AlgOBJ, AlgBrute} {
		for _, limit := range []int{1, 5, len(full), len(full) + 10} {
			got, st, err := Join(tq, tp, Options{Algorithm: alg, Collect: true, Limit: limit})
			if err != nil {
				t.Fatalf("%v limit=%d: %v", alg, limit, err)
			}
			want := limit
			if len(full) < want {
				want = len(full)
			}
			if len(got) != want {
				t.Errorf("%v limit=%d: got %d pairs, want %d", alg, limit, len(got), want)
			}
			if st.Results != int64(len(got)) {
				t.Errorf("%v limit=%d: Stats.Results = %d, want %d", alg, limit, st.Results, len(got))
			}
			for _, p := range got {
				if _, ok := fullSet[pairKey(p)]; !ok {
					t.Errorf("%v limit=%d: pair %s not in unconstrained result", alg, limit, pairKey(p))
				}
			}
		}
	}
}

// TestQueryPruningObservable checks that the pushdown actually prunes:
// constrained runs must report NodesPruned > 0 and do strictly less filter
// work than the unconstrained join on the same data.
func TestQueryPruningObservable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := randomPoints(rng, 2000)
	qs := randomPoints(rng, 2000)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	_, base, err := Join(tq, tp, Options{Algorithm: AlgINJ})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"max-diameter": {Algorithm: AlgINJ, MaxDiameter: 300},
		"top-k":        {Algorithm: AlgINJ, TopK: 10},
		"region":       {Algorithm: AlgINJ, Region: &geom.Rect{MinX: 4000, MinY: 4000, MaxX: 6000, MaxY: 6000}},
	} {
		_, st, err := Join(tq, tp, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.NodesPruned == 0 {
			t.Errorf("%s: NodesPruned = 0, predicate pruned nothing", name)
		}
		if st.FilterHeapPops >= base.FilterHeapPops {
			t.Errorf("%s: FilterHeapPops = %d, not below unconstrained %d", name, st.FilterHeapPops, base.FilterHeapPops)
		}
	}

	// Bulk algorithms prune too.
	_, st, err := Join(tq, tp, Options{Algorithm: AlgOBJ, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesPruned == 0 {
		t.Error("OBJ top-k: NodesPruned = 0, predicate pruned nothing")
	}
}

// TestBulkFilterStopsAtBound pins "one traversal": the bulk filter carries
// the distance-bound stop rule, so a bounded OBJ join stops popping once the
// heap passes the bound (it used to drain its whole heap: 15 290 and 23 624
// pops on this probe) with every other count unchanged, and forced INJ runs
// the same traversal on one-point batches. The OBJ pop ceilings sit 5 %
// above the pinned filter's counts (4 636 and 6 723); INJ's pops are exact.
func TestBulkFilterStopsAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := randomPoints(rng, 4000)
	qs := randomPoints(rng, 4000)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	for _, tc := range []struct {
		name    string
		opts    Options
		maxPops int64
		want    Stats // FilterHeapPops 0 = bounded by maxPops instead
	}{
		{"OBJ top-10", Options{Algorithm: AlgOBJ, TopK: 10}, 4868,
			Stats{Candidates: 160, Results: 10, NodesPruned: 3419, VerifiedNodes: 171}},
		{"OBJ max-diameter 150", Options{Algorithm: AlgOBJ, MaxDiameter: 150}, 7060,
			Stats{Candidates: 6994, Results: 5973, NodesPruned: 3567, VerifiedNodes: 1270}},
		{"INJ top-10", Options{Algorithm: AlgINJ, TopK: 10}, 0,
			Stats{Candidates: 86, Results: 10, NodesPruned: 128326, VerifiedNodes: 380, FilterHeapPops: 13433}},
		{"INJ max-diameter 150", Options{Algorithm: AlgINJ, MaxDiameter: 150}, 0,
			Stats{Candidates: 8159, Results: 5973, NodesPruned: 132865, VerifiedNodes: 24269, FilterHeapPops: 26200}},
		{"INJ unconstrained", Options{Algorithm: AlgINJ}, 0,
			Stats{Candidates: 17341, Results: 7981, VerifiedNodes: 27896, FilterHeapPops: 622666}},
	} {
		_, got, err := Join(tq, tp, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.want.FilterHeapPops == 0 {
			if got.FilterHeapPops > tc.maxPops {
				t.Errorf("%s: %d heap pops, want at most %d — the stop rule never fired", tc.name, got.FilterHeapPops, tc.maxPops)
			}
			got.FilterHeapPops = 0
		}
		tc.want.OuterLeaves = got.OuterLeaves
		if got != tc.want {
			t.Errorf("%s: stats\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
	}
}

// TestBoundedFilterSeedsOnlyProbedQueries pins the lazy Lemma-5 seeding of
// the bulk filter: a query point's sibling half-planes are installed on its
// first pruner probe, and a bounded batch probes only the (point, query)
// pairs its bound admits. Eager seeding puts 163 882 half-planes on all
// 4 000 query points of this probe under MaxDiameter 20; the unconstrained
// filter probes every query point, so there the sets match eager seeding
// exactly, and so do the pops. A static bound needs no verification, so the
// filter is driven leaf by leaf on its own.
func TestBoundedFilterSeedsOnlyProbedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := randomPoints(rng, 4000)
	qs := randomPoints(rng, 4000)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	for _, tc := range []struct {
		name                string
		opts                Options
		halfPlanes, holders int  // totals over every query point
		exact               bool // false: the totals are upper bounds
		pops                int64
	}{
		{"max-diameter 20", Options{Algorithm: AlgOBJ, MaxDiameter: 20}, 25000, 600, false, 4531},
		{"unconstrained", Options{Algorithm: AlgOBJ}, 175590, 4000, true, 39404},
	} {
		j := &joiner{tq: tq, tp: tp, opts: tc.opts, ctx: context.Background(), predOrder: compilePredOrder(tc.opts)}
		halfPlanes, holders := 0, 0
		_, err := rtree.VisitLeaves(tq, nil, func(_ storage.PageID, n *rtree.Node) error {
			queries, err := j.bulkFilter(n.Points(), true)
			for i := range queries {
				if l := queries[i].pruners.Len(); l > 0 {
					halfPlanes += l
					holders++
				}
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %d half-planes over %d query points", tc.name, halfPlanes, holders)
		if tc.exact && (halfPlanes != tc.halfPlanes || holders != tc.holders) {
			t.Errorf("%s: %d half-planes over %d query points, want exactly %d over %d",
				tc.name, halfPlanes, holders, tc.halfPlanes, tc.holders)
		}
		if !tc.exact && (halfPlanes > tc.halfPlanes || holders > tc.holders) {
			t.Errorf("%s: %d half-planes over %d query points, want at most %d over %d",
				tc.name, halfPlanes, holders, tc.halfPlanes, tc.holders)
		}
		if j.stats.FilterHeapPops != tc.pops {
			t.Errorf("%s: %d heap pops, want %d", tc.name, j.stats.FilterHeapPops, tc.pops)
		}
	}
}

// TestBoundedFilterQueuesOnlyReachable pins what a bounded filter queues:
// after every bulkFilter call under a finite bound, each point it queued
// lies within squaredBound of the batch's MBR and each subtree within
// bound·boundSlack of it, so no pop is spent on an entry every query point
// would reject. Static bounds hold from the first batch, TopK's once its
// heap has filled.
func TestBoundedFilterQueuesOnlyReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := randomPoints(rng, 4000)
	qs := randomPoints(rng, 4000)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"max-diameter 20", Options{MaxDiameter: 20}},
		{"max-diameter 150", Options{MaxDiameter: 150}},
		{"top-10", Options{TopK: 10}},
	} {
		for _, alg := range []Algorithm{AlgINJ, AlgOBJ} {
			opts := tc.opts
			opts.Algorithm = alg
			name := fmt.Sprintf("%s/%v", tc.name, alg)
			j := &joiner{tq: tq, tp: tp, opts: opts}
			batches, points, far := 0, 0, 0
			j.filtered = func(queries []bulkQuery) {
				bound := j.maxPairDiameter()
				if math.IsInf(bound, 1) || len(queries) == 0 {
					return
				}
				batches++
				mbr := geom.EmptyRect()
				for i := range queries {
					mbr = mbr.ExtendPoint(queries[i].q.P)
				}
				for _, p := range j.fheap.points {
					points++
					if mbr.MinDist2(p.point.P) > squaredBound(bound) {
						far++
					}
				}
				for _, n := range j.fheap.nodes {
					if !n.rect.IsEmpty() && math.Sqrt(geom.RectMinDist2(n.rect, mbr)) > bound*boundSlack {
						far++
					}
				}
			}
			if _, _, err := j.execute(context.Background()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if batches == 0 || points == 0 {
				t.Errorf("%s: no bounded batch queued a point (%d batches)", name, batches)
			}
			if far > 0 {
				t.Errorf("%s: %d queued entries beyond the bound of their batch's MBR", name, far)
			}
		}
	}
}

// TestStopRuleSpreadDwarfsBound is the pushdown property at the stop rule's
// worst case: leaves whose spread (~10^3) dwarfs the bound (10^-3), so the
// rule subtracts two numbers a million times the bound apart — on plain
// coordinates and translated by 10^6, where a coordinate's ulp is a tenth of
// a millionth of the bound. The rule may err toward one more pop, never
// toward a dropped pair: every algorithm must return exactly the oracle's
// pairs within the bound, and the oracle's top k where the k-th diameter is
// an exact tie.
func TestStopRuleSpreadDwarfsBound(t *testing.T) {
	const bound = 1e-3
	rng := rand.New(rand.NewSource(24))
	ps := randomPoints(rng, 300)
	// Every third P point gets a Q partner at 0.2–1.8 bounds, a few exactly
	// on it; the rest of Q is far from everything.
	qs := randomPoints(rng, 300)
	for i := 0; i < len(ps); i += 3 {
		d := bound * (0.2 + 1.6*rng.Float64())
		if i%5 == 0 {
			d = bound
		}
		qs[i].P = geom.Point{X: ps[i].P.X + d, Y: ps[i].P.Y}
	}
	for _, shift := range []float64{0, 1e6} {
		move := func(pts []rtree.PointEntry) []rtree.PointEntry {
			out := make([]rtree.PointEntry, len(pts))
			for i, p := range pts {
				out[i] = rtree.PointEntry{P: geom.Point{X: p.P.X + shift, Y: p.P.Y + shift}, ID: p.ID}
			}
			return out
		}
		mp, mq := move(ps), move(qs)
		opts := Options{MaxDiameter: bound, Collect: true}
		all := BruteForcePairs(mp, mq, false)
		want := postFilter(all, opts)
		if len(want) < 20 {
			t.Fatalf("shift %g: only %d pairs within the bound — the case lost its teeth", shift, len(want))
		}
		tp := buildTree(t, mp, nil, 0, true)
		tq := buildTree(t, mq, nil, 1, true)
		for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
			opts.Algorithm = alg
			got, _, err := Join(tq, tp, opts)
			if err != nil {
				t.Fatalf("%v shift %g: %v", alg, shift, err)
			}
			diffPairs(t, fmt.Sprintf("%v shift %g", alg, shift), want, got)
		}

		// TopK at the pairs within the bound, the last of which tie exactly
		// on it, and at one pair either side: the k-th diameter — the
		// dynamic bound — then ties with a pair the traversal has yet to
		// admit, which the squared pre-test must pass on, not drop.
		ranked := postFilter(all, Options{TopK: len(all)})
		for _, k := range []int{len(want) - 1, len(want), len(want) + 1} {
			kth := ranked[k-1].Circle.Radius
			if kth != ranked[k-2].Circle.Radius && kth != ranked[k].Circle.Radius {
				t.Fatalf("shift %g top-%d: the k-th diameter ties with no neighbour — the case lost its teeth", shift, k)
			}
			topk := Options{TopK: k, Collect: true}
			wantK := postFilter(all, topk)
			for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
				topk.Algorithm = alg
				got, _, err := Join(tq, tp, topk)
				if err != nil {
					t.Fatalf("%v shift %g top-%d: %v", alg, shift, k, err)
				}
				diffPairs(t, fmt.Sprintf("%v shift %g top-%d", alg, shift, k), wantK, got)
			}
		}
	}
}

// TestTopKDynamicBoundTightens checks the branch-and-bound actually engages:
// a top-k run must pop strictly fewer heap items than the same run with the
// heap disabled (approximated by top-k = everything).
func TestTopKDynamicBoundTightens(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ps := randomPoints(rng, 1500)
	qs := randomPoints(rng, 1500)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	_, full, err := Join(tq, tp, Options{Algorithm: AlgINJ})
	if err != nil {
		t.Fatal(err)
	}
	_, topk, err := Join(tq, tp, Options{Algorithm: AlgINJ, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if topk.FilterHeapPops >= full.FilterHeapPops {
		t.Errorf("top-5 popped %d heap items, unconstrained %d — dynamic bound never engaged",
			topk.FilterHeapPops, full.FilterHeapPops)
	}
	if topk.Candidates >= full.Candidates {
		t.Errorf("top-5 verified %d candidates, unconstrained %d — candidate pruning never engaged",
			topk.Candidates, full.Candidates)
	}
}

// TestRegionOuterPruning extends the pushdown-equivalence property to the
// outer traversal: a selective Region window must skip outer TQ leaves whose
// midpoint rect with TP misses the window — strictly fewer OuterLeaves than
// the unpruned run and NodesPruned > 0 — while returning exactly the
// post-filtered unconstrained result.
func TestRegionOuterPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ps := randomPoints(rng, 1200)
	qs := randomPoints(rng, 1200)
	tp := buildTree(t, ps, nil, 0, true)
	tq := buildTree(t, qs, nil, 1, true)

	full, base, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	// A window in one corner of the 10000² universe: centers are midpoints,
	// so query points beyond ~2× the window's extent cannot contribute.
	window := &geom.Rect{MinX: 0, MinY: 0, MaxX: 1500, MaxY: 1500}
	want := postFilter(full, Options{Region: window})

	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		got, st, err := Join(tq, tp, Options{Algorithm: alg, Collect: true, Region: window})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		diffPairs(t, fmt.Sprintf("%v region", alg), want, got)
		if st.OuterLeaves >= base.OuterLeaves {
			t.Errorf("%v: OuterLeaves = %d, not below unpruned %d — outer Region pushdown never engaged",
				alg, st.OuterLeaves, base.OuterLeaves)
		}
		if st.NodesPruned == 0 {
			t.Errorf("%v: NodesPruned = 0", alg)
		}
	}
}

// TestHeapAgainstSort cross-checks pairHeap's offer/full/worst/sorted
// against sorting the whole input, over random sizes, ks, and
// duplicate-heavy values (the pair's radius is the value ranked).
func TestHeapAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	val := func(p Pair) int { return int(p.Circle.Radius) }
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		k := 1 + rng.Intn(12)
		h := pairHeap{k: k, before: func(a, b Pair) bool { return val(a) < val(b) }}
		sofar := []int(nil)
		for i := 0; i < n; i++ {
			v := rng.Intn(20) // collisions exercise the strictness of before
			h.offer(Pair{Circle: geom.Circle{Radius: float64(v)}})
			sofar = append(sofar, v)
			sort.Ints(sofar)
			if wantFull := len(sofar) >= k; h.full() != wantFull {
				t.Fatalf("trial %d: full() = %v with %d of %d items", trial, h.full(), len(sofar), k)
			}
			if h.full() && val(h.worst()) != sofar[k-1] {
				t.Fatalf("trial %d: worst() = %d, want k-th best %d", trial, val(h.worst()), sofar[k-1])
			}
		}

		got := h.sorted()
		want := sofar
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d retained, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if val(got[i]) != want[i] {
				t.Fatalf("trial %d: sorted()[%d] = %d, want %d", trial, i, val(got[i]), want[i])
			}
		}
	}
}
