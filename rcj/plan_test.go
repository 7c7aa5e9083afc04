package rcj

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// plannerCases enumerates predicate combinations over the 1000² universe of
// testPoints, including the window shapes that steer the planner toward
// each of its rules.
func plannerCases() []Query {
	region := &Rect{MinX: 150, MinY: 150, MaxX: 800, MaxY: 800}
	tight := &Rect{MinX: 450, MinY: 450, MaxX: 550, MaxY: 550}
	return []Query{
		{},
		{MaxDiameter: 60},
		{MinDistance: 30},
		{Region: region},
		{Region: tight},
		{TopK: 1},
		{TopK: 12},
		{MaxDiameter: 80, Region: region},
		{TopK: 8, Region: tight},
		{TopK: 15, MaxDiameter: 70, MinDistance: 15},
		{MaxDiameter: 60, MinDistance: 25, Region: region},
		{TopK: 9, Limit: 4},
	}
}

// resolve resolves qry for the join (q, p) the way the executor does.
func resolve(qry Query, q, p *Index) (Query, PlanDecision) {
	return qry.ResolvePlan(q, p)
}

// TestResolveFixedEcho pins the fixed path: a query that names its algorithm
// (or sets ForceAlgorithm) resolves to itself verbatim under rule "fixed",
// and a request is planned once — a resolved query carries its decision, so
// every later resolve returns it unchanged, the planner's included.
func TestResolveFixedEcho(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(17))
	ix, err := eng.BuildIndex(testPoints(rng, 100, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	resolved, dec := resolve(Query{Algorithm: OBJ, Parallelism: 3}, ix, ix)
	if !resolved.ForceAlgorithm || resolved.Algorithm != OBJ {
		t.Errorf("resolved = {alg:%v force:%v}, want forced OBJ", resolved.Algorithm, resolved.ForceAlgorithm)
	}
	// Every join runs on one goroutine: the decision reports Parallelism 1,
	// whatever the deprecated field says.
	if dec.Rule != "fixed" || dec.Algorithm != OBJ || dec.Parallelism != 1 {
		t.Errorf("decision = %v, want fixed OBJ par=1", dec)
	}
	if _, d := resolve(Query{Algorithm: OBJ}, ix, ix); d.Parallelism != 1 {
		t.Errorf("forced OBJ with Parallelism 0: decision reports par=%d, want 1", d.Parallelism)
	}

	// INJ is the Algorithm zero value, so forcing it needs ForceAlgorithm.
	if _, d := resolve(Query{Algorithm: INJ, ForceAlgorithm: true}, ix, ix); d.Rule != "fixed" || d.Algorithm != INJ {
		t.Errorf("forced INJ: decision = %v, want fixed INJ", d)
	}

	// An L1 query is never planned: a forced index algorithm is echoed,
	// and an unforced one runs OBJ under rule "fixed".
	for _, alg := range []Algorithm{INJ, OBJ} {
		if _, d := resolve(Query{Metric: L1, Algorithm: alg, ForceAlgorithm: true}, ix, ix); d.Rule != "fixed" || d.Algorithm != alg {
			t.Errorf("forced L1 %v: decision = %v, want fixed %v", alg, d, alg)
		}
	}
	if _, d := resolve(Query{Metric: L1}, ix, ix); d.Rule != "fixed" || d.Algorithm != OBJ {
		t.Errorf("unforced L1: decision = %v, want fixed OBJ", d)
	}

	// Idempotence: resolving a resolved query changes nothing.
	again, dec2 := resolve(resolved, ix, ix)
	if again.Algorithm != resolved.Algorithm || !again.ForceAlgorithm || !reflect.DeepEqual(dec2, dec) {
		t.Errorf("re-resolve: query {alg:%v force:%v} decision %v, want unchanged %v",
			again.Algorithm, again.ForceAlgorithm, dec2, dec)
	}

	// The same holds for a planner-resolved query: the second resolve returns
	// the planner's decision — rule, estimates and all — not a "fixed" echo
	// of the algorithm it picked, and PlanOut keeps reading the first.
	var out PlanDecision
	planned, pdec := resolve(Query{MaxDiameter: 80, MinDistance: 5, PlanOut: &out}, ix, ix)
	if pdec.Rule == "fixed" || pdec.EstAccesses <= 0 {
		t.Fatalf("unforced query planned %v, want a planner rule with an estimate", pdec)
	}
	again, pdec2 := resolve(planned, ix, ix)
	if !reflect.DeepEqual(pdec2, pdec) || !reflect.DeepEqual(out, pdec) || again.Algorithm != planned.Algorithm {
		t.Errorf("re-resolve of a planned query: decision %v (PlanOut %v), want the first decision %v", pdec2, out, pdec)
	}
}

// TestResolveAutoPicksBySize pins the planner's headline rules end to end
// through Resolve: a tiny input plans brute, a large one plans OBJ, a sharp
// Region window shrinks the effective outer set into INJ territory — and the
// resolved query is pinned (later resolves return the same decision).
func TestResolveAutoPicksBySize(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(23))
	tiny, err := eng.BuildIndex(testPoints(rng, 40, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiny.Close()
	large, err := eng.BuildIndex(testPoints(rng, 800, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer large.Close()

	q1, dec1 := resolve(Query{}, tiny, tiny)
	if dec1.Algorithm != Brute || dec1.Rule != "tiny-brute" {
		t.Errorf("40×40 self-join planned %v, want tiny-brute", dec1)
	}
	if !q1.ForceAlgorithm || q1.Algorithm != Brute {
		t.Errorf("resolved query = {alg:%v force:%v}, want pinned Brute", q1.Algorithm, q1.ForceAlgorithm)
	}

	q2, dec2 := resolve(Query{}, large, large)
	if dec2.Algorithm != core.AlgGabriel || dec2.Rule != "unbounded-gabriel" {
		t.Errorf("800×800 self-join planned %v, want unbounded-gabriel", dec2)
	}
	if _, dec := resolve(Query{MinDistance: 1}, large, large); dec.Algorithm != OBJ || dec.Rule != "default-obj" {
		t.Errorf("800×800 self-join with a min-distance floor planned %v, want default-obj", dec)
	}
	if _, dec3 := resolve(q2, tiny, tiny); !reflect.DeepEqual(dec3, dec2) {
		t.Errorf("re-resolve of planned query: %v, want the first decision %v", dec3, dec2)
	}

	// A 100-unit window over the 1000-unit MBR leaves a few dozen effective
	// outer points: per-point filtering beats bulk setup.
	_, dec4 := resolve(Query{Region: &Rect{MinX: 450, MinY: 450, MaxX: 550, MaxY: 550}}, large, large)
	if dec4.Algorithm != INJ || dec4.Rule != "small-outer-inj" {
		t.Errorf("tight-window plan = %v, want small-outer-inj", dec4)
	}
}

// TestRunFillsPlanOut checks the reporting contract: Query.PlanOut receives
// the resolved decision on both the materializing and the streaming entry
// points, and on the streaming one it is filled before the iterator is
// consumed.
func TestRunFillsPlanOut(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(31))
	ixP, err := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixQ.Close()
	ctx := context.Background()

	var dec PlanDecision
	if _, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{TopK: 5, PlanOut: &dec}); err != nil {
		t.Fatal(err)
	}
	if dec.Rule == "" || dec.Parallelism != 1 {
		t.Errorf("RunCollect left PlanOut unfilled: %v", dec)
	}

	var decStream PlanDecision
	seq := eng.Run(ctx, ixQ, ixP, Query{TopK: 5, PlanOut: &decStream})
	if decStream.Rule == "" {
		t.Error("Run returned an iterator without filling PlanOut")
	}
	if _, err := Collect(seq); err != nil {
		t.Fatal(err)
	}
	if decStream.Algorithm != dec.Algorithm || decStream.Rule != dec.Rule {
		t.Errorf("streaming plan %v != collecting plan %v for the same query", decStream, dec)
	}
}

// TestPlannerSeesLiveMutations is the epoch-awareness regression test: on a
// mutable index the planner must read the live point count (LiveStats), not
// the sealed base superblock, whose count goes stale the moment a batch
// lands. A born-small index plans brute; after a 500-point insert batch the
// same unresolved query must plan OBJ, and the decision's pinned epoch must
// advance with the mutation.
func TestPlannerSeesLiveMutations(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(99))
	ix, err := eng.NewMutableIndex(testPoints(rng, 30, 0), MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	_, dec0 := resolve(Query{}, ix, ix)
	if dec0.Algorithm != Brute {
		t.Fatalf("30-point mutable self-join planned %v, want Brute", dec0)
	}

	if _, err := ix.Insert(testPoints(rng, 500, 1000)...); err != nil {
		t.Fatal(err)
	}
	_, dec1 := resolve(Query{}, ix, ix)
	if dec1.Algorithm != OBJ {
		t.Errorf("530-point mutable self-join planned %v — the planner read a stale (sealed) count, want OBJ", dec1)
	}
	if dec1.Epochs[0] <= dec0.Epochs[0] {
		t.Errorf("decision epoch %d after mutation, want > %d", dec1.Epochs[0], dec0.Epochs[0])
	}

	// Deleting back down must also be seen: the count shrinks through
	// tombstones, not just the delta growing.
	var ids []int64
	for i := int64(1000); i < 1500; i++ {
		ids = append(ids, i)
	}
	if _, err := ix.Delete(ids...); err != nil {
		t.Fatal(err)
	}
	if _, dec2 := resolve(Query{}, ix, ix); dec2.Algorithm != Brute {
		t.Errorf("after deleting back to 30 points planned %v, want Brute again", dec2.Algorithm)
	} else if dec2.Epochs[0] <= dec1.Epochs[0] {
		t.Errorf("decision epoch %d after delete, want > %d", dec2.Epochs[0], dec1.Epochs[0])
	}
}

// TestPlannerEquivalenceProperty is the randomized planner-equivalence
// property: for every predicate combination, self- and two-set joins, over
// immutable and mutable (delta + tombstone) indexes, the planner-chosen
// execution returns exactly the same pair set as every forced algorithm.
// The planner may be wrong about cost, never about answers. Run under -race
// in CI as a named gate.
func TestPlannerEquivalenceProperty(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(321))
	ctx := context.Background()

	build := func(n int, idBase int64, mutable bool) *Index {
		t.Helper()
		pts := testPoints(rng, n, idBase)
		if !mutable {
			ix, err := eng.BuildIndex(pts, IndexConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		// Born with half the points, grown to n, with a deleted stripe
		// re-inserted — so the planner and the executor both see a live
		// index with a real delta and tombstones.
		ix, err := eng.NewMutableIndex(pts[:n/2], MutableConfig{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert(pts[n/2:]...); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Delete(pts[0].ID, pts[1].ID); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert(pts[0], pts[1]); err != nil {
			t.Fatal(err)
		}
		return ix
	}

	for _, mutable := range []bool{false, true} {
		ixP := build(250, 0, mutable)
		ixQ := build(250, 0, mutable)
		for _, self := range []bool{false, true} {
			ixQ := ixQ
			if self {
				ixQ = ixP
			}
			for ci, base := range plannerCases() {
				// The planner's choice, everything left to it.
				var dec PlanDecision
				auto := base
				auto.PlanOut = &dec
				got, _, err := eng.RunCollect(ctx, ixQ, ixP, auto)
				if err != nil {
					t.Fatalf("mutable=%v self=%v case=%d auto: %v", mutable, self, ci, err)
				}
				for _, alg := range []Algorithm{INJ, OBJ, Brute} {
					forced := base
					forced.Algorithm = alg
					forced.ForceAlgorithm = true
					want, _, err := eng.RunCollect(ctx, ixQ, ixP, forced)
					if err != nil {
						t.Fatalf("mutable=%v self=%v case=%d %v: %v", mutable, self, ci, alg, err)
					}
					samePairs(t, labelFor(mutable, self, ci, alg, dec), sortedPairs(want), sortedPairs(got))
				}
			}
		}
		ixP.Close()
		ixQ.Close()
	}
}

func labelFor(mutable, self bool, ci int, alg Algorithm, dec PlanDecision) string {
	m := "immutable"
	if mutable {
		m = "mutable"
	}
	s := "two-set"
	if self {
		s = "self"
	}
	return fmt.Sprintf("%s %s case=%d vs %v (planned %s)", m, s, ci, alg, dec.Rule)
}

// TestWeightedTopKEquivalence checks the school-bus pushdown: a TopK query
// with a Weight function returns the head of RankPairsByWeight over the
// unconstrained join — under the planner and under every forced algorithm.
// Sets are compared by their combined-weight multisets so weight ties never
// flake the test.
func TestWeightedTopKEquivalence(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(77))
	ixP, err := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixQ.Close()
	ctx := context.Background()

	weight := func(p Point) float64 { return float64((p.ID*7919)%997) + math.Sin(float64(p.ID)) }
	combined := func(pr Pair) float64 { return weight(pr.P) + weight(pr.Q) }
	weightsOf := func(pairs []Pair) []float64 {
		ws := make([]float64, len(pairs))
		for i, pr := range pairs {
			ws[i] = combined(pr)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
		return ws
	}

	for _, self := range []bool{false, true} {
		ixQ := ixQ
		if self {
			ixQ = ixP
		}
		full, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{})
		if err != nil {
			t.Fatal(err)
		}
		ranked := append([]Pair(nil), full...)
		RankPairsByWeight(ranked, weight)

		for _, k := range []int{1, 7, 40, len(full) + 5} {
			head := ranked
			if k < len(head) {
				head = head[:k]
			}
			want := weightsOf(head)
			algs := []struct {
				name   string
				forced bool
				alg    Algorithm
			}{
				{"auto", false, 0},
				{"inj", true, INJ},
				{"obj", true, OBJ},
				{"brute", true, Brute},
			}
			for _, a := range algs {
				qry := Query{TopK: k, Weight: weight, Algorithm: a.alg, ForceAlgorithm: a.forced}
				got, _, err := eng.RunCollect(ctx, ixQ, ixP, qry)
				if err != nil {
					t.Fatalf("self=%v k=%d %s: %v", self, k, a.name, err)
				}
				gw := weightsOf(got)
				if len(gw) != len(want) {
					t.Fatalf("self=%v k=%d %s: %d pairs, want %d", self, k, a.name, len(gw), len(want))
				}
				for i := range want {
					if math.Abs(gw[i]-want[i]) > 1e-9 {
						t.Fatalf("self=%v k=%d %s: rank %d combined weight %v, want %v", self, k, a.name, i, gw[i], want[i])
					}
				}
			}
		}
	}

	// Weight without TopK has no ranking to bound: typed rejection.
	if _, _, err := eng.RunCollect(ctx, ixP, ixP, Query{Weight: weight}); err == nil {
		t.Error("Weight without TopK accepted, want ErrBadQuery")
	}
}

// BenchmarkPlannerAutoVsForced is the planner's acceptance benchmark on the
// paper's 3000×3000 uniform top-10 workload: auto (planner decides per
// query) against the previously hard-coded OBJ. Auto must match or beat
// forced OBJ in both wall clock and node accesses — on this shape the
// planner picks OBJ itself, so the delta is pure planning overhead.
func BenchmarkPlannerAutoVsForced(b *testing.B) {
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

	run := func(b *testing.B, qry Query) {
		var st Stats
		qry.Stats = &st
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.RunCollect(ctx, ixQ, ixP, qry); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.NodeAccesses), "node-accesses/op")
	}
	b.Run("top10-auto", func(b *testing.B) { run(b, Query{TopK: 10}) })
	b.Run("top10-forced-obj", func(b *testing.B) {
		run(b, Query{TopK: 10, Algorithm: OBJ, ForceAlgorithm: true})
	})
}
