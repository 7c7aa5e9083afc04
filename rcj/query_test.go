package rcj

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// postFilterQuery applies qry's predicates to an unconstrained result the
// way the pushdown claims to: Matches for the pair-level predicates, then
// the TopK/Limit truncation of the diameter ranking.
func postFilterQuery(full []Pair, qry Query) []Pair {
	var out []Pair
	for _, p := range full {
		if qry.Matches(p) {
			out = append(out, p)
		}
	}
	if qry.TopK > 0 {
		SortPairsByDiameter(out)
		k := qry.TopK
		if qry.Limit > 0 && qry.Limit < k {
			k = qry.Limit
		}
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// queryCases enumerates predicate combinations over the 10000² universe of
// testPoints.
func queryCases() []Query {
	region := &Rect{MinX: 1500, MinY: 1500, MaxX: 8000, MaxY: 8000}
	tight := &Rect{MinX: 4000, MinY: 4000, MaxX: 6000, MaxY: 6000}
	return []Query{
		{},
		{MaxDiameter: 500},
		{MinDistance: 300},
		{Region: region},
		{Region: tight},
		{TopK: 1},
		{TopK: 12},
		{TopK: 10_000}, // k beyond the result size: identical to unconstrained
		{MaxDiameter: 800, Region: region},
		{TopK: 8, Region: tight},
		{TopK: 15, MaxDiameter: 700, MinDistance: 150},
		{MaxDiameter: 600, MinDistance: 250, Region: region},
		{TopK: 9, Limit: 4},
	}
}

// TestRunPushdownProperty is the randomized equivalence property: for any
// predicate combination, any algorithm, self- or two-set join, streaming
// Engine.Run returns exactly the post-filtered unconstrained join.
func TestRunPushdownProperty(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(123))
	ps := testPoints(rng, 350, 0)
	qs := testPoints(rng, 350, 0)
	ixP, err := eng.BuildIndex(ps, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.BuildIndex(qs, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixQ.Close()

	ctx := context.Background()
	for _, self := range []bool{false, true} {
		ixQ := ixQ
		if self {
			ixQ = ixP
		}
		full, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{INJ, OBJ} {
			for ci, qry := range queryCases() {
				qry.Algorithm = alg
				qry.ForceAlgorithm = true
				var st Stats
				qry.Stats = &st
				got, err := Collect(eng.Run(ctx, ixQ, ixP, qry))
				if err != nil {
					t.Fatalf("%v self=%v case=%d: %v", alg, self, ci, err)
				}
				want := postFilterQuery(full, qry)
				label := fmt.Sprintf("%v self=%v case=%d", alg, self, ci)
				samePairs(t, label, sortedPairs(want), sortedPairs(got))
				if st.Results != int64(len(got)) {
					t.Errorf("%s: Stats.Results = %d, want %d", label, st.Results, len(got))
				}
			}
		}
	}
}

// TestRunLimitSubset checks the Limit contract on its own: at most Limit
// pairs, all members of the unconstrained result.
func TestRunLimitSubset(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(5))
	ixP, _ := eng.BuildIndex(testPoints(rng, 400, 0), IndexConfig{})
	defer ixP.Close()
	ixQ, _ := eng.BuildIndex(testPoints(rng, 400, 0), IndexConfig{})
	defer ixQ.Close()

	ctx := context.Background()
	full, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	fullKeys := keySet(full)
	for _, limit := range []int{1, 7, len(full) + 5} {
		got, st, err := eng.RunCollect(ctx, ixQ, ixP, Query{Limit: limit})
		if err != nil {
			t.Fatalf("limit=%d: %v", limit, err)
		}
		want := limit
		if len(full) < want {
			want = len(full)
		}
		if len(got) != want {
			t.Errorf("limit=%d: %d pairs, want %d", limit, len(got), want)
		}
		if st.Results != int64(len(got)) {
			t.Errorf("limit=%d: Stats.Results = %d, want %d", limit, st.Results, len(got))
		}
		for _, p := range got {
			if !fullKeys[[2]int64{p.P.ID, p.Q.ID}] {
				t.Errorf("limit=%d: pair (%d,%d) not in unconstrained result", limit, p.P.ID, p.Q.ID)
			}
		}
	}
}

// TestRunPushdownSavesNodeAccesses is the acceptance check on the paper's
// experiment scale (3000×3000 uniform). The planned full join runs on the
// Gabriel path: it reads every page of both indexes exactly once, and its
// pairs are the R-tree's. A TopK (and a MaxDiameter) query returns exactly
// what post-filtering that join keeps and, pushed into the R-tree
// traversal, touches strictly fewer nodes than the R-tree's own full
// traversal (OBJ) and reports the pruned subtrees. The pushdowns are not
// held below the Gabriel path's one read per page: ranked and bounded
// joins stay on the R-tree, and the logged counts show what they pay.
func TestRunPushdownSavesNodeAccesses(t *testing.T) {
	if testing.Short() {
		t.Skip("3000×3000 join in -short mode")
	}
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(42))
	ixP, err := eng.BuildIndex(testPoints(rng, 3000, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.BuildIndex(testPoints(rng, 3000, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixQ.Close()

	ctx := context.Background()
	var fullPlan PlanDecision
	full, fullStats, err := eng.RunCollect(ctx, ixQ, ixP, Query{PlanOut: &fullPlan})
	if err != nil {
		t.Fatal(err)
	}
	if pages := int64(ixP.tree.NumPages() + ixQ.tree.NumPages()); fullPlan.Rule != "unbounded-gabriel" || fullStats.NodeAccesses != pages {
		t.Errorf("full join planned %v read %d nodes, want unbounded-gabriel reading each of %d pages once", fullPlan, fullStats.NodeAccesses, pages)
	}
	treeFull, treeStats, err := eng.RunCollect(ctx, ixQ, ixP, Query{Algorithm: OBJ})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "full join, Gabriel path vs OBJ", sortedPairs(treeFull), sortedPairs(full))

	topk, topkStats, err := eng.RunCollect(ctx, ixQ, ixP, Query{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := postFilterQuery(full, Query{TopK: 10})
	samePairs(t, "top-10", sortedPairs(want), sortedPairs(topk))
	if topkStats.NodeAccesses >= treeStats.NodeAccesses {
		t.Errorf("top-10 pushdown: %d node accesses, the R-tree's full join pays %d — no saving",
			topkStats.NodeAccesses, treeStats.NodeAccesses)
	}
	if topkStats.NodesPruned == 0 {
		t.Error("top-10 pushdown: NodesPruned = 0")
	}

	md, mdStats, err := eng.RunCollect(ctx, ixQ, ixP, Query{MaxDiameter: 150})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "max-diameter", sortedPairs(postFilterQuery(full, Query{MaxDiameter: 150})), sortedPairs(md))
	if mdStats.NodeAccesses >= treeStats.NodeAccesses {
		t.Errorf("max-diameter pushdown: %d node accesses, the R-tree's full join pays %d — no saving",
			mdStats.NodeAccesses, treeStats.NodeAccesses)
	}
	t.Logf("3000×3000: full=%d accesses (Gabriel path), %d (OBJ); top-10=%d accesses (%d pruned); max-diameter=%d accesses (%d pruned)",
		fullStats.NodeAccesses, treeStats.NodeAccesses, topkStats.NodeAccesses, topkStats.NodesPruned, mdStats.NodeAccesses, mdStats.NodesPruned)

	// The Region pushdown skips outer subtrees whatever the outer input is.
	// A live outer with an empty delta is the same tree behind the merged
	// view: the same bounded window reads the same nodes and prunes the same
	// subtrees as over the immutable one (a window without a bound derives
	// one over sealed inputs only, so both sides get the bound the immutable
	// pair derives). With a delta and tombstones the live outer still reads
	// strictly less than the unconstrained walk, for exactly the pairs
	// post-filtering keeps.
	window := Query{Region: &Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, Algorithm: OBJ, ForceAlgorithm: true}
	_, winStats, err := eng.RunCollect(ctx, ixQ, ixP, window)
	if err != nil {
		t.Fatal(err)
	}
	bounded := window
	bounded.MaxDiameter = regionBoundOf(t, ixQ, ixP, *window.Region)
	wantWin, boundedStats, err := eng.RunCollect(ctx, ixQ, ixP, bounded)
	if err != nil {
		t.Fatal(err)
	}
	qPts, err := ixQ.Points()
	if err != nil {
		t.Fatal(err)
	}
	liveQ, err := eng.NewMutableIndex(qPts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer liveQ.Close()
	gotWin, liveStats, err := eng.RunCollect(ctx, liveQ, ixP, bounded)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "window, live outer", sortedPairs(wantWin), sortedPairs(gotWin))
	if liveStats.NodeAccesses != boundedStats.NodeAccesses || liveStats.NodesPruned != boundedStats.NodesPruned {
		t.Errorf("bounded window, live outer with an empty delta: %d accesses / %d pruned, immutable outer pays %d / %d",
			liveStats.NodeAccesses, liveStats.NodesPruned, boundedStats.NodeAccesses, boundedStats.NodesPruned)
	}
	if _, err := liveQ.Insert(testPoints(rng, 300, 100_000)...); err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for i := 0; i < len(qPts); i += 13 {
		dead = append(dead, qPts[i].ID)
	}
	if _, err := liveQ.Delete(dead...); err != nil {
		t.Fatal(err)
	}
	liveFull, _, err := eng.RunCollect(ctx, liveQ, ixP, Query{Algorithm: OBJ, ForceAlgorithm: true})
	if err != nil {
		t.Fatal(err)
	}
	gotWin, liveStats, err = eng.RunCollect(ctx, liveQ, ixP, window)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "window, live outer with delta and tombstones", sortedPairs(postFilterQuery(liveFull, window)), sortedPairs(gotWin))
	// The unconstrained walk reads every outer leaf before any inner work.
	leafCap := rtree.LeafCapacity(storage.DefaultPageSize)
	if outerLeaves := int64((liveQ.Len() + leafCap - 1) / leafCap); liveStats.NodeAccesses >= outerLeaves {
		t.Errorf("window, live outer with delta and tombstones: %d accesses, the unconstrained walk alone reads %d outer leaves",
			liveStats.NodeAccesses, outerLeaves)
	}
	t.Logf("1 %% corner window: immutable outer %d accesses (%d pruned); live outer with delta and tombstones %d (%d pruned)",
		winStats.NodeAccesses, winStats.NodesPruned, liveStats.NodeAccesses, liveStats.NodesPruned)
}

// TestRunTopKStreamOrder checks the streaming contract of TopK: the
// iterator yields exactly k pairs, in ascending diameter order.
func TestRunTopKStreamOrder(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(8))
	ixP, _ := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	defer ixP.Close()
	ixQ, _ := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	defer ixQ.Close()

	var got []Pair
	for pr, err := range eng.Run(context.Background(), ixQ, ixP, Query{TopK: 6, Parallelism: 2}) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pr)
	}
	if len(got) != 6 {
		t.Fatalf("streamed %d pairs, want 6", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Radius < got[j].Radius }) {
		t.Error("top-k stream not in ascending diameter order")
	}
}

// TestQueryValidate covers the malformed-query rejections, streaming and
// collecting.
func TestQueryValidate(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(3))
	ix, _ := eng.BuildIndex(testPoints(rng, 50, 0), IndexConfig{})
	defer ix.Close()

	bad := []Query{
		{TopK: -1},
		{Limit: -2},
		{MaxDiameter: -0.5},
		{MinDistance: -1},
		{Region: &Rect{MinX: 10, MaxX: 5, MinY: 0, MaxY: 1}},
		// A NaN coordinate would otherwise silently prune everything.
		{Region: &Rect{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}},
		{Region: &Rect{MinX: 0, MinY: 0, MaxX: math.NaN(), MaxY: 1}},
		// A NaN bound would otherwise read as unset: the unconstrained join.
		{MaxDiameter: math.NaN()},
		{MinDistance: math.NaN()},
	}
	for i, qry := range bad {
		if _, _, err := eng.RunCollect(context.Background(), ix, ix, qry); !errors.Is(err, ErrBadQuery) {
			t.Errorf("case %d: RunCollect error = %v, want ErrBadQuery", i, err)
		}
		var streamErr error
		for _, err := range eng.Run(context.Background(), ix, ix, qry) {
			streamErr = err
			break
		}
		if !errors.Is(streamErr, ErrBadQuery) {
			t.Errorf("case %d: Run stream error = %v, want ErrBadQuery", i, streamErr)
		}
	}
}

// TestTopKByDiameterPushdown pins a bare TopK query to the head of the
// sorted full join, pair for pair (node-access savings are covered
// elsewhere); here we check the contract only.
func TestTopKByDiameterPushdown(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ixP := mustIndex(t, randomPoints(rng, 200), IndexConfig{})
	defer ixP.Close()
	ixQ := mustIndex(t, randomPoints(rng, 200), IndexConfig{})
	defer ixQ.Close()

	full, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, len(full), len(full) + 3} {
		got, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		want := full
		if k < len(full) {
			want = full[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d pairs, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].P.ID != want[i].P.ID || got[i].Q.ID != want[i].Q.ID {
				t.Fatalf("k=%d: pair %d = (%d,%d), want (%d,%d)", k, i, got[i].P.ID, got[i].Q.ID, want[i].P.ID, want[i].Q.ID)
			}
		}
	}
}

// BenchmarkQueryPushdown quantifies pushdown against join-then-filter on
// the paper's 3000×3000 uniform workload: the same answer with far fewer
// node accesses. The per-op metrics report exact per-run tagged counters.
func BenchmarkQueryPushdown(b *testing.B) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(42))
	mk := func() *Index {
		pts := make([]Point, 3000)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: int64(i)}
		}
		ix, err := eng.BuildIndex(pts, IndexConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	ixP, ixQ := mk(), mk()
	defer ixP.Close()
	defer ixQ.Close()
	ctx := context.Background()

	run := func(b *testing.B, qry Query, post func([]Pair) []Pair) {
		var st Stats
		qry.Stats = &st
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pairs, _, err := eng.RunCollect(ctx, ixQ, ixP, qry)
			if err != nil {
				b.Fatal(err)
			}
			if post != nil {
				pairs = post(pairs)
			}
			_ = pairs
		}
		b.ReportMetric(float64(st.NodeAccesses), "node-accesses/op")
		b.ReportMetric(float64(st.NodesPruned), "nodes-pruned/op")
	}

	b.Run("top10-pushdown", func(b *testing.B) { run(b, Query{TopK: 10}, nil) })
	b.Run("top10-postfilter", func(b *testing.B) {
		run(b, Query{}, func(pairs []Pair) []Pair {
			SortPairsByDiameter(pairs)
			if len(pairs) > 10 {
				pairs = pairs[:10]
			}
			return pairs
		})
	})
	b.Run("maxdiam150-pushdown", func(b *testing.B) { run(b, Query{MaxDiameter: 150}, nil) })
	b.Run("maxdiam150-postfilter", func(b *testing.B) {
		q := Query{MaxDiameter: 150}
		run(b, Query{}, func(pairs []Pair) []Pair {
			kept := pairs[:0]
			for _, p := range pairs {
				if q.Matches(p) {
					kept = append(kept, p)
				}
			}
			return kept
		})
	})
}
