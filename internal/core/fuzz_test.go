package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// FuzzJoinMatchesOracle drives the full index pipeline on fuzzer-shaped tiny
// pointsets and cross-checks the result against the brute-force oracle —
// the fuzzing analogue of the randomized equivalence tests, aimed at the
// degenerate coordinate patterns fuzzers are good at finding (duplicates,
// collinearity, extreme proximity). A TopK leg holds the ranked Gabriel
// path to the oracle's ranking on the same inputs.
func FuzzJoinMatchesOracle(f *testing.F) {
	f.Add(float64(1), float64(2), float64(3), float64(4), float64(5), float64(6), uint8(3), uint8(2))
	f.Add(float64(0), float64(0), float64(0), float64(0), float64(0), float64(0), uint8(4), uint8(4))
	f.Add(float64(7), float64(7), float64(7.0000001), float64(7), float64(100), float64(100), uint8(5), uint8(1))

	f.Fuzz(func(t *testing.T, a, bb, c, d, e, g float64, nP, nQ uint8) {
		gen := func(n int, s1, s2, s3 float64) []rtree.PointEntry {
			pts := make([]rtree.PointEntry, n)
			for i := range pts {
				// Deterministic but seed-dependent coordinates in-domain.
				x := squash(s1 + float64(i)*s2)
				y := squash(s3 + float64(i)*s1)
				pts[i] = rtree.PointEntry{P: geom.Point{X: x, Y: y}, ID: int64(i)}
			}
			return pts
		}
		ps := gen(int(nP)%12+1, a, bb, c)
		qs := gen(int(nQ)%12+1, d, e, g)

		pool := buffer.NewPool(-1)
		build := func(pts []rtree.PointEntry, owner uint32) *rtree.Tree {
			pager := storage.NewMemPager(storage.DefaultPageSize)
			tr, err := rtree.New(pager, pool, rtree.Config{Owner: owner})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(pts, 0); err != nil {
				t.Fatal(err)
			}
			return tr
		}
		tp := build(ps, 1)
		tq := build(qs, 2)

		want := BruteForcePairs(ps, qs, false)
		for _, alg := range []Algorithm{AlgINJ, AlgOBJ} {
			got, _, err := Join(tq, tp, Options{Algorithm: alg, Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v: %d pairs, oracle %d (P=%v Q=%v)", alg, len(got), len(want), ps, qs)
			}
			wantSet := map[[2]int64]bool{}
			for _, w := range want {
				wantSet[[2]int64{w.P.ID, w.Q.ID}] = true
			}
			for _, gp := range got {
				if !wantSet[[2]int64{gp.P.ID, gp.Q.ID}] {
					t.Fatalf("%v: extra pair <%d,%d>", alg, gp.P.ID, gp.Q.ID)
				}
			}
		}
		// The ranked Gabriel path (short edges, else the triangulation)
		// returns the head of the oracle's ranking, in order.
		for _, k := range []int{1, 3, len(want) + 1} {
			opts := Options{Algorithm: AlgGabriel, TopK: k, Collect: true}
			got, _, err := Join(tq, tp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rankedKeys(got), rankedKeys(postFilter(want, opts)); !slices.Equal(g, w) {
				t.Fatalf("Gabriel top-%d: %v, oracle %v (P=%v Q=%v)", k, g, w, ps, qs)
			}
		}
	})
}

func squash(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 10000)
}
