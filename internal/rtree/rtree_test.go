package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/storage"
)

func newTestTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	if pageSize == 0 {
		pageSize = storage.DefaultPageSize
	}
	pager := storage.NewMemPager(pageSize)
	tr, err := New(pager, buffer.NewPool(-1), Config{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomEntries(rng *rand.Rand, n int) []PointEntry {
	pts := make([]PointEntry, n)
	for i := range pts {
		pts[i] = PointEntry{
			P:  geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000},
			ID: int64(i),
		}
	}
	return pts
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	leaf := NewLeaf(randomEntries(rng, 42))
	buf := make([]byte, storage.DefaultPageSize)
	if err := leaf.Encode(buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Leaf || got.NumPoints() != leaf.NumPoints() {
		t.Fatalf("leaf round trip: got leaf=%v count=%d", got.Leaf, got.NumPoints())
	}
	for i := 0; i < leaf.NumPoints(); i++ {
		if got.EntryAt(i) != leaf.EntryAt(i) {
			t.Fatalf("leaf entry %d mismatch: %+v vs %+v", i, got.EntryAt(i), leaf.EntryAt(i))
		}
	}

	internal := &Node{Children: []ChildEntry{
		{MBR: geom.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, Child: 7},
		{MBR: geom.Rect{MinX: -5, MinY: 0, MaxX: 5, MaxY: 9.25}, Child: 0},
	}}
	if err := internal.Encode(buf); err != nil {
		t.Fatal(err)
	}
	got, err = DecodeNode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Leaf || len(got.Children) != 2 {
		t.Fatalf("internal round trip: leaf=%v count=%d", got.Leaf, len(got.Children))
	}
	for i := range internal.Children {
		if got.Children[i] != internal.Children[i] {
			t.Fatalf("internal entry %d mismatch", i)
		}
	}
}

func TestNodeEncodeOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewLeaf(randomEntries(rng, LeafCapacity(storage.DefaultPageSize)+1))
	buf := make([]byte, storage.DefaultPageSize)
	if err := n.Encode(buf); err == nil {
		t.Fatal("encoding an overfull node succeeded")
	}
}

func TestDecodeCorruptPage(t *testing.T) {
	buf := make([]byte, storage.DefaultPageSize)
	buf[0] = 1 // leaf
	buf[2] = 0xFF
	buf[3] = 0xFF // count 65535, way past the page
	if _, err := DecodeNode(buf); err == nil {
		t.Fatal("decoding a corrupt page succeeded")
	}
	if _, err := DecodeNode(buf[:2]); err == nil {
		t.Fatal("decoding a truncated page succeeded")
	}
}

func TestInsertInvariantsAndScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := newTestTree(t, 0)
	pts := randomEntries(rng, 3000)
	for i, p := range pts {
		if err := tr.Insert(p.P, p.ID); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%977 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("invariants broken after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != len(pts) {
		t.Fatalf("size %d, want %d", tr.Size(), len(pts))
	}
	if tr.Height() < 2 {
		t.Fatalf("3000 points should not fit a single node (height %d)", tr.Height())
	}
	got, err := tr.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("scan returned %d points, want %d", len(got), len(pts))
	}
	seen := map[int64]bool{}
	for _, g := range got {
		if seen[g.ID] {
			t.Fatalf("duplicate id %d in scan", g.ID)
		}
		seen[g.ID] = true
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 41, 42, 43, 1000, 5000} {
		tr := newTestTree(t, 0)
		pts := randomEntries(rng, n)
		if err := tr.BulkLoad(pts, 0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Size() != n {
			t.Fatalf("n=%d: size %d", n, tr.Size())
		}
		// STR packs fully, so underfull-node invariants don't apply; check
		// reachability and MBR containment by scan + manual walk.
		got, err := tr.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: scan %d", n, len(got))
		}
		if n > 0 {
			mbr, err := tr.RootMBR()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range got {
				if !mbr.ContainsPoint(p.P) {
					t.Fatalf("n=%d: point outside root MBR", n)
				}
			}
		}
	}
}

func TestRangeSearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomEntries(rng, 2000)
	for _, build := range []string{"insert", "bulk"} {
		tr := newTestTree(t, 0)
		if build == "bulk" {
			if err := tr.BulkLoad(pts, 0); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, p := range pts {
				if err := tr.Insert(p.P, p.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 25; i++ {
			w := geom.Rect{
				MinX: rng.Float64() * 9000,
				MinY: rng.Float64() * 9000,
			}
			w.MaxX = w.MinX + rng.Float64()*2000
			w.MaxY = w.MinY + rng.Float64()*2000
			got, err := tr.RangeSearch(w)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, p := range pts {
				if w.ContainsPoint(p.P) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("%s build: range %d returned %d, want %d", build, i, len(got), want)
			}
		}
	}
}

func TestINNEmitsInDistanceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomEntries(rng, 1200)
	tr := newTestTree(t, 0)
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 5000, Y: 5000}
	it := tr.NewINNIterator(q)
	var dists []float64
	count := 0
	for {
		_, d2, ok := it.Next()
		if !ok {
			break
		}
		dists = append(dists, d2)
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != len(pts) {
		t.Fatalf("INN emitted %d points, want %d", count, len(pts))
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("INN emitted points out of distance order")
	}
}

func TestKNNMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomEntries(rng, 500)
	tr := newTestTree(t, 0)
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q := geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		k := 1 + rng.Intn(20)
		got, err := tr.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		d := make([]float64, len(pts))
		for j, p := range pts {
			d[j] = q.Dist2(p.P)
		}
		sort.Float64s(d)
		if len(got) != k {
			t.Fatalf("KNN returned %d, want %d", len(got), k)
		}
		for j := range got {
			if diff := q.Dist2(got[j].P) - d[j]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("KNN rank %d dist2 %g, want %g", j, q.Dist2(got[j].P), d[j])
			}
		}
	}
}

func TestVisitLeavesCoversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomEntries(rng, 800)
	tr := newTestTree(t, 0)
	if n, err := VisitLeaves(tr, nil, nil); n != 0 || err != nil {
		t.Fatalf("empty tree: skipped %d, err %v", n, err)
	}
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	var visited int
	if _, err := VisitLeaves(tr, nil, func(id storage.PageID, n *Node) error {
		if !n.Leaf {
			t.Fatal("VisitLeaves yielded a non-leaf")
		}
		if at, err := tr.ReadNode(id); err != nil || at != n {
			t.Fatalf("leaf handed out with page id %d, which reads as another node (%v)", id, err)
		}
		visited += n.NumPoints()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if visited != len(pts) {
		t.Fatalf("leaves hold %d points, want %d", visited, len(pts))
	}

	// A skipped subtree is counted, never read, never visited: skipping
	// everything left of x=5000 still reaches every point right of it.
	var right int
	for _, p := range pts {
		if p.P.X >= 5000 {
			right++
		}
	}
	reads := tr.Pool().Stats().Accesses
	visited = 0
	skipped, err := VisitLeaves(tr, func(r geom.Rect) bool { return r.MaxX < 5000 }, func(_ storage.PageID, n *Node) error {
		for i := 0; i < n.NumPoints(); i++ {
			if n.EntryAt(i).P.X >= 5000 {
				visited++
			}
		}
		return nil
	})
	if err != nil || skipped == 0 || visited != right {
		t.Fatalf("pruned walk: skipped %d, reached %d of %d points, err %v", skipped, visited, right, err)
	}
	if got := tr.Pool().Stats().Accesses - reads; got+skipped > int64(tr.NumPages()) {
		t.Fatalf("pruned walk read %d nodes and skipped %d subtrees of a %d-page tree", got, skipped, tr.NumPages())
	}

	// A root leaf is tested against its own MBR.
	one := newTestTree(t, 0)
	if err := one.BulkLoad(pts[:3], 0); err != nil {
		t.Fatal(err)
	}
	if n, err := VisitLeaves(one, func(geom.Rect) bool { return true }, nil); n != 1 || err != nil {
		t.Fatalf("skipped root leaf: skipped %d, err %v", n, err)
	}
}

func TestSmallPageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// 256-byte pages force deep trees and many splits/reinserts.
	tr := newTestTree(t, 256)
	pts := randomEntries(rng, 600)
	for _, p := range pts {
		if err := tr.Insert(p.P, p.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("600 points on 256B pages should be at least 3 levels, got %d", tr.Height())
	}
}

func TestDuplicatePointsSurvive(t *testing.T) {
	tr := newTestTree(t, 0)
	for i := 0; i < 200; i++ {
		if err := tr.Insert(geom.Point{X: 42, Y: 42}, int64(i)); err != nil {
			t.Fatalf("insert duplicate %d: %v", i, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.RangeSearch(geom.Rect{MinX: 42, MinY: 42, MaxX: 42, MaxY: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("found %d duplicates, want 200", len(got))
	}
}

// TestQuickRangeEqualsLinear is a property test: for random point sets and
// random windows, indexed range search equals the linear scan.
func TestQuickRangeEqualsLinear(t *testing.T) {
	f := func(seed int64, nRaw uint8, window [4]float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		pts := randomEntries(rng, n)
		tr := newTestTree(t, 0)
		if err := tr.BulkLoad(pts, 0); err != nil {
			return false
		}
		w := geom.Rect{
			MinX: mod(window[0], 10000), MinY: mod(window[1], 10000),
		}
		w.MaxX = w.MinX + mod(window[2], 5000)
		w.MaxY = w.MinY + mod(window[3], 5000)
		got, err := tr.RangeSearch(w)
		if err != nil {
			return false
		}
		want := 0
		for _, p := range pts {
			if w.ContainsPoint(p.P) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// mod maps an arbitrary quick-generated float (possibly NaN/Inf) into
// [0, m).
func mod(v, m float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v = math.Mod(math.Abs(v), m)
	return v
}
