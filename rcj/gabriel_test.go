package rcj

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// entriesOf converts rcj points to the oracle's entries.
func entriesOf(pts []Point) []rtree.PointEntry {
	out := make([]rtree.PointEntry, len(pts))
	for i, p := range pts {
		out[i] = p.entry()
	}
	return out
}

// TestGabrielMatchesOBJ is the Gabriel path's gate against the R-tree: at
// 100k per side (5k under -race), uniform against clustered, the planned
// join (unbounded-gabriel) returns forced OBJ's pairs, two-set and self,
// and reads exactly the pages it was priced at, every page of each input
// once.
func TestGabrielMatchesOBJ(t *testing.T) {
	n := 100_000
	if raceEnabled || testing.Short() {
		n = 5_000
	}
	eng := NewEngine(EngineConfig{})
	build := func(pts []rtree.PointEntry) *Index {
		ix, err := eng.BuildIndex(toPoints(pts), IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	u, g := build(workload.Uniform(n, 31)), build(workload.GaussianClusters(n, 10, 1000, 32))
	for _, c := range []struct {
		name string
		q, p *Index
	}{{"two-set", u, g}, {"self", g, g}} {
		var dec PlanDecision
		got, st, err := eng.RunCollect(bg, c.q, c.p, Query{PlanOut: &dec})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Rule != "unbounded-gabriel" || dec.Parallelism != 1 {
			t.Fatalf("%s: planned %v, want unbounded-gabriel at par=1", c.name, dec)
		}
		pages := int64(c.p.tree.NumPages())
		if c.q != c.p {
			pages += int64(c.q.tree.NumPages())
		}
		if st.NodeAccesses != pages || dec.EstAccesses != pages {
			t.Errorf("%s: %d accesses, estimated %d; the inputs hold %d pages", c.name, st.NodeAccesses, dec.EstAccesses, pages)
		}
		want, _, err := eng.RunCollect(bg, c.q, c.p, Query{Algorithm: OBJ})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !sameKeys(keySet(got), keySet(want)) {
			t.Errorf("%s at %d: Gabriel path %d pairs, forced OBJ %d", c.name, n, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.P.ID > b.P.ID || a.P.ID == b.P.ID && a.Q.ID >= b.Q.ID {
				t.Fatalf("%s: pairs %d and %d out of (P id, Q id) order", c.name, i-1, i)
			}
		}
	}
}

// TestLiveAndSealedMatchOracle holds live and sealed inputs over the same
// points to the Delaunay oracle (core.GabrielPairs), not only to each
// other: ~20k-point mutable indexes take random batches of inserts and
// deletes, and after each batch the live join (the R-tree path: the
// planner keeps live inputs off the Gabriel path) and a sealed rebuild
// over the snapshot's points (planned, so on the Gabriel path) each return
// the oracle's pairs, two-set and self.
func TestLiveAndSealedMatchOracle(t *testing.T) {
	n, batches, batch := 20_000, 3, 400
	if raceEnabled || testing.Short() {
		n, batches, batch = 3_000, 2, 100
	}
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(91))
	newLive := func(idBase int64) (*Index, map[int64]bool) {
		pts := testPoints(rng, n, idBase)
		ix, err := eng.NewMutableIndex(pts, MutableConfig{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		ids := make(map[int64]bool, n)
		for _, p := range pts {
			ids[p.ID] = true
		}
		return ix, ids
	}
	lp, pIDs := newLive(0)
	lq, qIDs := newLive(1 << 40)
	next := int64(1 << 50)
	mutate := func(ix *Index, ids map[int64]bool) {
		var ins []Point
		var del []int64
		for id := range ids {
			if len(del) == batch {
				break
			}
			del = append(del, id)
		}
		for _, id := range del {
			delete(ids, id)
		}
		for i := 0; i < batch; i++ {
			ins = append(ins, Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: next})
			ids[next] = true
			next++
		}
		if _, err := ix.ApplyBatch(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b <= batches; b++ {
		if b > 0 {
			mutate(lp, pIDs)
			mutate(lq, qIDs)
		}
		for _, self := range []bool{false, true} {
			q := lq
			if self {
				q = lp
			}
			label := fmt.Sprintf("batch %d self=%v", b, self)
			pPts, qPts := pointsOf(t, lp), pointsOf(t, q)
			want := fromCorePairs(core.GabrielPairs(entriesOf(pPts), entriesOf(qPts), self))
			var dec PlanDecision
			live, _, err := eng.RunCollect(bg, q, lp, Query{PlanOut: &dec})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Algorithm == core.AlgGabriel {
				t.Fatalf("%s: a live join planned %v", label, dec)
			}
			sp, err := eng.BuildIndex(pPts, IndexConfig{})
			if err != nil {
				t.Fatal(err)
			}
			sq := sp
			if !self {
				if sq, err = eng.BuildIndex(qPts, IndexConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			sealed, _, err := eng.RunCollect(bg, sq, sp, Query{PlanOut: &dec})
			sp.Close()
			sq.Close()
			if err != nil {
				t.Fatal(err)
			}
			if dec.Rule != "unbounded-gabriel" {
				t.Fatalf("%s: the sealed rebuild planned %v", label, dec)
			}
			for how, got := range map[string][]Pair{"live": live, "sealed rebuild": sealed} {
				if len(got) != len(want) || !sameKeys(keySet(got), keySet(want)) {
					t.Errorf("%s: %s join %d pairs, the Delaunay oracle %d", label, how, len(got), len(want))
				}
			}
		}
	}
}
