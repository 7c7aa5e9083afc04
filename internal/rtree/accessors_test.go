package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func TestAccessors(t *testing.T) {
	tr := newTestTree(t, 0)
	if tr.Root() != storage.InvalidPageID {
		t.Fatal("empty tree has a root")
	}
	if tr.LeafCap() != LeafCapacity(storage.DefaultPageSize) {
		t.Fatalf("LeafCap %d", tr.LeafCap())
	}
	if tr.Pool() == nil {
		t.Fatal("nil pool")
	}
	if _, err := tr.RootMBR(); err == nil {
		t.Fatal("RootMBR on empty tree must error")
	}
	rng := rand.New(rand.NewSource(1))
	pts := randomEntries(rng, 100)
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	if tr.Root() == storage.InvalidPageID {
		t.Fatal("loaded tree has no root")
	}
	if tr.NumPages() == 0 {
		t.Fatal("no pages after load")
	}
}

func TestNearestNeighbor(t *testing.T) {
	tr := newTestTree(t, 0)
	if _, err := tr.NearestNeighbor(geom.Point{}); err == nil {
		t.Fatal("NN on empty tree must error")
	}
	rng := rand.New(rand.NewSource(2))
	pts := randomEntries(rng, 300)
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		got, err := tr.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		best := pts[0]
		for _, p := range pts {
			if q.Dist2(p.P) < q.Dist2(best.P) {
				best = p
			}
		}
		if q.Dist2(got.P) != q.Dist2(best.P) {
			t.Fatalf("NN of %+v: got dist2 %g, want %g", q, q.Dist2(got.P), q.Dist2(best.P))
		}
	}
}
