package rcj

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
)

// TestSameIndexIsSelfJoin is the gate on "a join is (q, p, Query)": joining
// an index with itself is the self-join of its dataset whatever plan runs
// it. For three sizes — each steering the planner to a different rule; the
// largest is 600 points, not more, because the cubic oracle runs under -race
// in CI — × {planner, every algorithm a caller can force} under L2 and the
// unforced query under L1 (its fixed OBJ) × {immutable, live}: Run and
// RunCollect over (ix, ix) and the deprecated RunSelf forwards all equal the
// index-free self-join oracle, every pair is canonical (P.ID < Q.ID), and
// VerifyPair(ix, ix, P, Q) agrees with each Euclidean pair. Before self-ness
// was derived from q == p, Run(ix, ix) answered by plan: identity pairs plus
// both orientations of every self-join pair under tiny-brute, the identity
// pairs alone under forced OBJ.
func TestSameIndexIsSelfJoin(t *testing.T) {
	sizes := []struct {
		n    int
		qry  Query
		rule string // the planner's rule on the immutable form
	}{
		{50, Query{}, "tiny-brute"},
		{300, Query{Region: &Rect{MinX: 375, MinY: 375, MaxX: 625, MaxY: 625}}, "small-outer-inj"},
		{600, Query{}, "unbounded-gabriel"},
	}
	plans := []struct {
		name string
		qry  Query
	}{
		{"planner", Query{}},
		{"inj", Query{Algorithm: INJ, ForceAlgorithm: true}},
		{"obj", Query{Algorithm: OBJ}},
		{"brute", Query{Algorithm: Brute}},
		{"gabriel", Query{Algorithm: core.AlgGabriel}},
		{"l1-planner", Query{Metric: L1}},
	}
	rng := rand.New(rand.NewSource(22))
	eng := NewEngine(EngineConfig{})
	for _, size := range sizes {
		pts := testPoints(rng, size.n, 0)
		for _, form := range l1GateForms {
			if form.name == "v3-file" {
				continue // the read path under a saved index has its own gates
			}
			ix := form.open(t, eng, pts, "")
			defer ix.Close()
			live := pointsOf(t, ix)
			entries := make([]rtree.PointEntry, len(live))
			for i, pt := range live {
				entries[i] = pt.entry()
			}
			oracle := map[Metric][]Pair{
				L2: postFilterQuery(fromCorePairs(core.BruteForcePairs(entries, entries, true)), size.qry),
				L1: postFilterQuery(fromCorePairs(core.BruteForceL1Pairs(entries, entries, true)), size.qry),
			}
			for _, plan := range plans {
				label := fmt.Sprintf("n=%d %s %s", size.n, form.name, plan.name)
				qry := size.qry
				qry.Metric, qry.Algorithm, qry.ForceAlgorithm = plan.qry.Metric, plan.qry.Algorithm, plan.qry.ForceAlgorithm
				var dec PlanDecision
				qry.PlanOut = &dec
				want := oracle[qry.Metric]
				if len(want) < 20 {
					t.Fatalf("%s: oracle has only %d pairs", label, len(want))
				}

				collected, _, err := eng.RunCollect(bg, ix, ix, qry)
				if err != nil {
					t.Fatalf("%s: RunCollect: %v", label, err)
				}
				streamed, err := Collect(eng.Run(bg, ix, ix, qry))
				if err != nil {
					t.Fatalf("%s: Run: %v", label, err)
				}
				got := map[string][]Pair{"RunCollect(ix, ix)": collected, "Run(ix, ix)": streamed}
				if plan.name == "planner" {
					if form.name == "built" && dec.Rule != size.rule {
						t.Errorf("%s: planned %v, want rule %s", label, dec, size.rule)
					}
					// The deprecated forwards are one statement each (pinned by
					// plan.TestJoinEntryPoints); one plan per size and form shows
					// they land on the same join.
					if got["RunSelfCollect(ix)"], _, err = eng.RunSelfCollect(bg, ix, qry); err != nil {
						t.Fatalf("%s: RunSelfCollect: %v", label, err)
					}
					if got["RunSelf(ix)"], err = Collect(eng.RunSelf(bg, ix, qry)); err != nil {
						t.Fatalf("%s: RunSelf: %v", label, err)
					}
				}
				for how, got := range got {
					if len(got) != len(want) || !sameKeys(keySet(got), keySet(want)) {
						t.Errorf("%s: %s returned %d pairs, the self-join oracle has %d", label, how, len(got), len(want))
					}
					for _, pr := range got {
						if pr.P.ID >= pr.Q.ID {
							t.Fatalf("%s: %s returned the non-canonical pair <%d,%d>", label, how, pr.P.ID, pr.Q.ID)
						}
					}
				}
				if qry.Metric == L2 {
					for _, pr := range collected {
						if ok, err := VerifyPair(ix, ix, pr.P, pr.Q); err != nil || !ok {
							t.Fatalf("%s: VerifyPair(ix, ix, %d, %d) = %v, %v for a pair the join returned", label, pr.P.ID, pr.Q.ID, ok, err)
						}
					}
				}
			}
		}
	}
}
