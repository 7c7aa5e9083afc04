package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildTree indexes the given points in a fresh in-memory R*-tree sharing
// the provided pool (or its own if pool is nil).
func buildTree(t testing.TB, pts []rtree.PointEntry, pool *buffer.Pool, owner uint32, bulk bool) *rtree.Tree {
	t.Helper()
	return buildTreePaged(t, pts, pool, owner, bulk, storage.DefaultPageSize)
}

// buildTreePaged is buildTree at the given page size.
func buildTreePaged(t testing.TB, pts []rtree.PointEntry, pool *buffer.Pool, owner uint32, bulk bool, pageSize int) *rtree.Tree {
	t.Helper()
	if pool == nil {
		pool = buffer.NewPool(-1)
	}
	pager := storage.NewMemPager(pageSize)
	tr, err := rtree.New(pager, pool, rtree.Config{PageSize: pageSize, Owner: owner})
	if err != nil {
		t.Fatalf("new tree: %v", err)
	}
	if bulk {
		if err := tr.BulkLoad(pts, 0); err != nil {
			t.Fatalf("bulk load: %v", err)
		}
	} else {
		for _, p := range pts {
			if err := tr.Insert(p.P, p.ID); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	return tr
}

// randomPoints generates n points uniformly in [0,10000]² with ids 0..n-1.
func randomPoints(rng *rand.Rand, n int) []rtree.PointEntry {
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		pts[i] = rtree.PointEntry{
			P:  geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000},
			ID: int64(i),
		}
	}
	return pts
}

// clusteredPoints generates n points in w Gaussian clusters.
func clusteredPoints(rng *rand.Rand, n, w int, sigma float64) []rtree.PointEntry {
	centers := make([]geom.Point, w)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
	}
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		c := centers[i%w]
		pts[i] = rtree.PointEntry{
			P:  geom.Point{X: c.X + rng.NormFloat64()*sigma, Y: c.Y + rng.NormFloat64()*sigma},
			ID: int64(i),
		}
	}
	return pts
}

// pairKey canonicalizes a pair for set comparison.
func pairKey(p Pair) string {
	return fmt.Sprintf("%d|%d", p.P.ID, p.Q.ID)
}

func pairSet(pairs []Pair) map[string]Pair {
	m := make(map[string]Pair, len(pairs))
	for _, p := range pairs {
		m[pairKey(p)] = p
	}
	return m
}

// diffPairs reports the symmetric difference between two result sets.
func diffPairs(t *testing.T, label string, want, got []Pair) {
	t.Helper()
	ws, gs := pairSet(want), pairSet(got)
	if len(ws) != len(want) {
		t.Fatalf("%s: oracle produced duplicate pairs", label)
	}
	if len(gs) != len(got) {
		t.Errorf("%s: algorithm produced duplicate pairs (%d pairs, %d unique)", label, len(got), len(gs))
	}
	var missing, extra []string
	for k := range ws {
		if _, ok := gs[k]; !ok {
			missing = append(missing, k)
		}
	}
	for k := range gs {
		if _, ok := ws[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: result mismatch: %d missing (false negatives) %v, %d extra (false positives) %v",
			label, len(missing), truncate(missing), len(extra), truncate(extra))
	}
}

func truncate(s []string) []string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// runAll executes one algorithm against the oracle on the given datasets.
func checkAlgorithm(t *testing.T, alg Algorithm, ps, qs []rtree.PointEntry, bulkLoad bool) {
	t.Helper()
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, bulkLoad)
	tq := buildTree(t, qs, pool, 2, bulkLoad)
	got, stats, err := Join(tq, tp, Options{Algorithm: alg, Collect: true})
	if err != nil {
		t.Fatalf("%v join: %v", alg, err)
	}
	want := BruteForcePairs(ps, qs, false)
	diffPairs(t, alg.String(), want, got)
	if stats.Results != int64(len(got)) {
		t.Errorf("%v: stats.Results=%d, len=%d", alg, stats.Results, len(got))
	}
	if alg != AlgBrute && stats.Candidates < stats.Results {
		t.Errorf("%v: candidates %d < results %d", alg, stats.Candidates, stats.Results)
	}
}

func TestAlgorithmsMatchOracleUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 40, 150} {
		ps := randomPoints(rng, n)
		qs := randomPoints(rng, n+3)
		for _, alg := range []Algorithm{AlgBrute, AlgINJ, AlgBIJ, AlgOBJ} {
			t.Run(fmt.Sprintf("%v/n=%d", alg, n), func(t *testing.T) {
				checkAlgorithm(t, alg, ps, qs, true)
			})
			// One tree on both sides WITHOUT SelfJoin is still the two-set join
			// of a dataset with its copy: every point of the "other" set sits
			// on the ring, so only identity pairs survive — under every
			// algorithm alike.
			t.Run(fmt.Sprintf("%v/n=%d/same-tree", alg, n), func(t *testing.T) {
				tr := buildTree(t, ps, buffer.NewPool(-1), 1, true)
				got, _, err := Join(tr, tr, Options{Algorithm: alg, Collect: true})
				if err != nil {
					t.Fatalf("%v join: %v", alg, err)
				}
				diffPairs(t, alg.String(), BruteForcePairs(ps, ps, false), got)
			})
		}
	}
}

func TestAlgorithmsMatchOracleClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := clusteredPoints(rng, 120, 3, 400)
	qs := clusteredPoints(rng, 90, 5, 700)
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		t.Run(alg.String(), func(t *testing.T) {
			checkAlgorithm(t, alg, ps, qs, true)
		})
	}
}

func TestAlgorithmsMatchOracleInsertBuiltTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ps := randomPoints(rng, 100)
	qs := randomPoints(rng, 80)
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		t.Run(alg.String(), func(t *testing.T) {
			checkAlgorithm(t, alg, ps, qs, false)
		})
	}
}

func TestSkewedCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := randomPoints(rng, 200)
	qs := randomPoints(rng, 10)
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		t.Run(alg.String()+"/bigP", func(t *testing.T) {
			checkAlgorithm(t, alg, ps, qs, true)
		})
		t.Run(alg.String()+"/bigQ", func(t *testing.T) {
			checkAlgorithm(t, alg, qs, ps, true)
		})
	}
}

func TestSelfJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 100)
	want := BruteForcePairs(pts, pts, true)
	pool := buffer.NewPool(-1)
	tr := buildTree(t, pts, pool, 1, true)
	for _, alg := range []Algorithm{AlgBrute, AlgINJ, AlgBIJ, AlgOBJ} {
		t.Run(alg.String(), func(t *testing.T) {
			got, _, err := Join(tr, tr, Options{Algorithm: alg, SelfJoin: true, Collect: true})
			if err != nil {
				t.Fatalf("self join: %v", err)
			}
			for _, p := range got {
				if p.P.ID >= p.Q.ID {
					t.Errorf("non-canonical self pair <%d,%d>", p.P.ID, p.Q.ID)
				}
			}
			diffPairs(t, "self/"+alg.String(), want, got)
		})
	}
}

func TestRandomLeafOrderSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomPoints(rng, 150)
	qs := randomPoints(rng, 150)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	base, _, err := Join(tq, tp, Options{Algorithm: AlgINJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	shuf, _, err := Join(tq, tp, Options{Algorithm: AlgINJ, RandomLeafOrder: true, Seed: 1234, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	diffPairs(t, "shuffled-leaves", base, shuf)
}

func TestSkipVerificationSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ps := randomPoints(rng, 80)
	qs := randomPoints(rng, 80)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	verified, _, err := Join(tq, tp, Options{Algorithm: AlgINJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, stats, err := Join(tq, tp, Options{Algorithm: AlgINJ, SkipVerification: true, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != stats.Candidates {
		t.Errorf("unverified output %d != candidates %d", len(raw), stats.Candidates)
	}
	rs := pairSet(raw)
	for k := range pairSet(verified) {
		if _, ok := rs[k]; !ok {
			t.Errorf("filter lost true result %s (false negative in filter step)", k)
		}
	}
}

func TestDisableFaceRuleSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ps := clusteredPoints(rng, 150, 4, 300)
	qs := clusteredPoints(rng, 150, 4, 300)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	with, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, DisableFaceRule: true, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	diffPairs(t, "face-rule", without, with)
}

func TestOnPairStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ps := randomPoints(rng, 60)
	qs := randomPoints(rng, 60)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	var streamed int
	_, stats, err := Join(tq, tp, Options{Algorithm: AlgOBJ, OnPair: func(Pair) { streamed++ }})
	if err != nil {
		t.Fatal(err)
	}
	if int64(streamed) != stats.Results {
		t.Errorf("streamed %d pairs, stats.Results=%d", streamed, stats.Results)
	}
}

func TestEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pool := buffer.NewPool(-1)
	pts := randomPoints(rng, 20)
	full := buildTree(t, pts, pool, 1, true)
	empty := buildTree(t, nil, pool, 2, true)
	for _, alg := range []Algorithm{AlgBrute, AlgINJ, AlgBIJ, AlgOBJ} {
		got, stats, err := Join(empty, full, Options{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v empty Q: %v", alg, err)
		}
		if len(got) != 0 || stats.Results != 0 {
			t.Errorf("%v empty Q: got %d pairs", alg, len(got))
		}
		got, _, err = Join(full, empty, Options{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v empty P: %v", alg, err)
		}
		if len(got) != 0 {
			t.Errorf("%v empty P: got %d pairs", alg, len(got))
		}
	}
}

// TestTinyDegenerate exercises collinear, duplicate-location and
// single-point configurations where tolerance handling matters most.
func TestTinyDegenerate(t *testing.T) {
	cases := []struct {
		name string
		ps   []geom.Point
		qs   []geom.Point
	}{
		{"one-one", []geom.Point{{X: 1, Y: 1}}, []geom.Point{{X: 2, Y: 2}}},
		{"collinear", []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}}, []geom.Point{{X: 1, Y: 0}, {X: 3, Y: 0}}},
		{"coincident-cross", []geom.Point{{X: 5, Y: 5}, {X: 7, Y: 5}}, []geom.Point{{X: 5, Y: 5}, {X: 6, Y: 8}}},
		{"grid", []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 2}, {X: 2, Y: 0}, {X: 2, Y: 2}}, []geom.Point{{X: 1, Y: 1}}},
		{"dup-p", []geom.Point{{X: 3, Y: 3}, {X: 3, Y: 3}}, []geom.Point{{X: 4, Y: 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := make([]rtree.PointEntry, len(tc.ps))
			for i, p := range tc.ps {
				ps[i] = rtree.PointEntry{P: p, ID: int64(i)}
			}
			qs := make([]rtree.PointEntry, len(tc.qs))
			for i, q := range tc.qs {
				qs[i] = rtree.PointEntry{P: q, ID: int64(i)}
			}
			want := BruteForcePairs(ps, qs, false)
			for _, alg := range []Algorithm{AlgBrute, AlgINJ, AlgBIJ, AlgOBJ} {
				checkAlgorithm(t, alg, ps, qs, true)
				_ = want
			}
		})
	}
}
