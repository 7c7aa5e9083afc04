package rcj

import (
	"math/rand"
	"sort"
	"testing"
)

// TestVerifyPair holds VerifyPair to join membership: every pair the join
// returns verifies, and over a sample of P x Q (all of it on the lattice
// input, whose points sit exactly on other pairs' disc boundaries)
// VerifyPair accepts exactly the pairs the join returns.
func TestVerifyPair(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lattice := latticeHalves(300, 1)[0]
	for _, in := range []struct {
		name   string
		ps, qs []Point
		np, nq int
	}{
		{"uniform", randomPoints(rng, 120), randomPoints(rng, 120), 30, 30},
		{lattice.Name, toPoints(lattice.P), toPoints(lattice.Q), len(lattice.P), len(lattice.Q)},
	} {
		ixP := mustIndex(t, in.ps, IndexConfig{})
		ixQ := mustIndex(t, in.qs, IndexConfig{})
		pairs, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			t.Fatalf("%s: no pairs", in.name)
		}
		// Every reported pair verifies.
		for _, pr := range pairs[:min(20, len(pairs))] {
			ok, err := VerifyPair(ixQ, ixP, pr.P, pr.Q)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("%s: join pair <%d,%d> fails VerifyPair", in.name, pr.P.ID, pr.Q.ID)
			}
		}
		// Count non-pairs among the cross product; it must agree with the join.
		inJoin := keySet(pairs)
		verified := 0
		for _, p := range in.ps[:in.np] {
			for _, q := range in.qs[:in.nq] {
				ok, err := VerifyPair(ixQ, ixP, p, q)
				if err != nil {
					t.Fatal(err)
				}
				if ok != inJoin[[2]int64{p.ID, q.ID}] {
					t.Errorf("%s: VerifyPair(<%d,%d>)=%v disagrees with join membership", in.name, p.ID, q.ID, ok)
				}
				if ok {
					verified++
				}
			}
		}
		if verified == 0 {
			t.Errorf("%s: no verified pairs in the sampled cross product", in.name)
		}
	}
}

func TestTopKByDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ixP := mustIndex(t, randomPoints(rng, 200), IndexConfig{})
	ixQ := mustIndex(t, randomPoints(rng, 200), IndexConfig{})
	all, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 25, len(all), len(all) + 100} {
		top, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		wantLen := k
		if wantLen > len(all) {
			wantLen = len(all)
		}
		if len(top) != wantLen {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(top), wantLen)
		}
		if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Radius < top[j].Radius }) {
			t.Fatalf("k=%d: not ascending", k)
		}
		// The k-th smallest diameter matches the full sorted join (compare
		// radii; ties make identity comparison ambiguous).
		for i := range top {
			if d := top[i].Radius - all[i].Radius; d > 1e-9 || d < -1e-9 {
				t.Fatalf("k=%d: rank %d radius %g, want %g", k, i, top[i].Radius, all[i].Radius)
			}
		}
	}
}

func TestIndexStats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ix := mustIndex(t, randomPoints(rng, 2000), IndexConfig{})
	st := ix.Stats()
	if st.Points != 2000 {
		t.Errorf("points %d", st.Points)
	}
	if st.Height < 2 {
		t.Errorf("height %d for 2000 points", st.Height)
	}
	if st.Pages < 2000/43 {
		t.Errorf("pages %d too few", st.Pages)
	}
	if st.PageSize != 1024 {
		t.Errorf("page size %d", st.PageSize)
	}
}

func TestParallelJoinPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ixP := mustIndex(t, randomPoints(rng, 300), IndexConfig{})
	ixQ := mustIndex(t, randomPoints(rng, 300), IndexConfig{})
	seq, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := testEng.RunCollect(bg, ixQ, ixP, parQuery(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(seq), keySet(par)) {
		t.Fatal("parallel public join disagrees with sequential")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
