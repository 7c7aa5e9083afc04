package joins

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func buildTree(t *testing.T, pts []rtree.PointEntry, owner uint32) *rtree.Tree {
	t.Helper()
	pager := storage.NewMemPager(storage.DefaultPageSize)
	tr, err := rtree.New(pager, buffer.NewPool(-1), rtree.Config{Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomPoints(rng *rand.Rand, n int) []rtree.PointEntry {
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		pts[i] = rtree.PointEntry{
			P:  geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			ID: int64(i),
		}
	}
	return pts
}

// The operators stream; the tests compare whole result lists.
func epsilonJoin(tp, tq *rtree.Tree, eps float64) ([]Pair, error) {
	var out []Pair
	_, err := EpsilonJoinStream(tp, tq, eps, func(p Pair) { out = append(out, p) })
	return out, err
}

func kClosestPairs(tp, tq *rtree.Tree, k int) ([]Pair, error) {
	var out []Pair
	err := KClosestPairsStream(tp, tq, k, func(p Pair) { out = append(out, p) })
	return out, err
}

func knnJoin(tp, tq *rtree.Tree, k int) ([]Pair, error) {
	var out []Pair
	err := KNNJoinStream(tp, tq, k, func(p Pair) { out = append(out, p) })
	return out, err
}

func TestEpsilonJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := randomPoints(rng, 200)
	qs := randomPoints(rng, 150)
	tp := buildTree(t, ps, 1)
	tq := buildTree(t, qs, 2)
	for _, eps := range []float64{0, 5, 25, 100, 2000} {
		got, err := epsilonJoin(tp, tq, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[Key]float64)
		for _, p := range ps {
			for _, q := range qs {
				if d := p.P.Dist(q.P); d <= eps {
					want[Key{p.ID, q.ID}] = d
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("eps=%g: got %d pairs, want %d", eps, len(got), len(want))
		}
		for _, g := range got {
			d, ok := want[KeyOf(g)]
			if !ok {
				t.Fatalf("eps=%g: unexpected pair %+v", eps, KeyOf(g))
			}
			if math.Abs(d-g.Dist) > 1e-9 {
				t.Fatalf("eps=%g: distance mismatch for %+v: %g vs %g", eps, KeyOf(g), g.Dist, d)
			}
		}
	}
}

func TestKClosestPairsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := randomPoints(rng, 120)
	qs := randomPoints(rng, 90)
	tp := buildTree(t, ps, 1)
	tq := buildTree(t, qs, 2)

	type dp struct {
		d float64
		k Key
	}
	var all []dp
	for _, p := range ps {
		for _, q := range qs {
			all = append(all, dp{d: p.P.Dist(q.P), k: Key{p.ID, q.ID}})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })

	for _, k := range []int{1, 7, 50, 500} {
		got, err := kClosestPairs(tp, tq, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: got %d pairs", k, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist-1e-12 {
				t.Fatalf("k=%d: output not in distance order at %d", k, i)
			}
		}
		// Compare the distance multiset (ties make identity comparison
		// ambiguous at the boundary).
		for i := range got {
			if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
				t.Fatalf("k=%d: rank %d distance %g, want %g", k, i, got[i].Dist, all[i].d)
			}
		}
	}
}

func TestKClosestPairsExhaustsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomPoints(rng, 10)
	qs := randomPoints(rng, 10)
	tp := buildTree(t, ps, 1)
	tq := buildTree(t, qs, 2)
	got, err := kClosestPairs(tp, tq, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("asking beyond the cross product: got %d pairs, want 100", len(got))
	}
}

func TestKNNJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := randomPoints(rng, 80)
	qs := randomPoints(rng, 60)
	tp := buildTree(t, ps, 1)
	tq := buildTree(t, qs, 2)
	for _, k := range []int{1, 3, 10} {
		got, err := knnJoin(tp, tq, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k*len(ps) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), k*len(ps))
		}
		// Per outer point, the k-th smallest distance bound must hold.
		byP := map[int64][]float64{}
		for _, g := range got {
			byP[g.P.ID] = append(byP[g.P.ID], g.Dist)
		}
		for _, p := range ps {
			var dists []float64
			for _, q := range qs {
				dists = append(dists, p.P.Dist(q.P))
			}
			sort.Float64s(dists)
			gds := byP[p.ID]
			sort.Float64s(gds)
			if len(gds) != k {
				t.Fatalf("k=%d: point %d has %d neighbors", k, p.ID, len(gds))
			}
			for i := range gds {
				if math.Abs(gds[i]-dists[i]) > 1e-9 {
					t.Fatalf("k=%d: point %d rank %d distance %g, want %g", k, p.ID, i, gds[i], dists[i])
				}
			}
		}
	}
}

func TestKNNJoinAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := randomPoints(rng, 50)
	qs := randomPoints(rng, 30)
	tp := buildTree(t, ps, 1)
	tq := buildTree(t, qs, 2)
	a, err := knnJoin(tp, tq, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := knnJoin(tq, tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(b) {
		t.Logf("note: equal sizes %d; asymmetry shows in membership", len(a))
	}
	if len(a) != 2*len(ps) || len(b) != 2*len(qs) {
		t.Fatalf("result sizes %d/%d, want %d/%d (k·|outer|)", len(a), len(b), 2*len(ps), 2*len(qs))
	}
}

func TestJoinsOnEmptyTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	full := buildTree(t, randomPoints(rng, 20), 1)
	empty := buildTree(t, nil, 2)
	if got, err := epsilonJoin(full, empty, 100); err != nil || len(got) != 0 {
		t.Errorf("eps join with empty input: %v, %d pairs", err, len(got))
	}
	if got, err := kClosestPairs(empty, full, 5); err != nil || len(got) != 0 {
		t.Errorf("kcp join with empty input: %v, %d pairs", err, len(got))
	}
	if got, err := knnJoin(full, empty, 5); err != nil || len(got) != 0 {
		t.Errorf("knn join with empty inner: %v, %d pairs", err, len(got))
	}
}
