package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// memSeal is the test Seal: a plain in-memory STR build, plus a counter of
// how often the closed-base hook ran so retirement can be asserted.
func memSeal(closes *atomic.Int64) func([]rtree.PointEntry, uint64) (Base, error) {
	return func(pts []rtree.PointEntry, seq uint64) (Base, error) {
		tr, err := rtree.New(storage.NewMemPager(storage.DefaultPageSize), buffer.NewPool(-1), rtree.Config{})
		if err != nil {
			return Base{}, err
		}
		if len(pts) > 0 {
			if err := tr.BulkLoad(pts, 0); err != nil {
				return Base{}, err
			}
		}
		return Base{Tree: tr, Count: len(pts), Close: func() error {
			if closes != nil {
				closes.Add(1)
			}
			return nil
		}}, nil
	}
}

func newTestIndex(t *testing.T, compactEvery int, closes *atomic.Int64) *Index {
	t.Helper()
	ix, err := New(Base{}, Config{CompactEvery: compactEvery, Seal: memSeal(closes)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func entry(id int64, x, y float64) rtree.PointEntry {
	return rtree.PointEntry{P: geom.Point{X: x, Y: y}, ID: id}
}

func randEntries(rng *rand.Rand, n int, idBase int64) []rtree.PointEntry {
	out := make([]rtree.PointEntry, n)
	for i := range out {
		out[i] = entry(idBase+int64(i), rng.Float64()*1000, rng.Float64()*1000)
	}
	return out
}

func idsOf(pts []rtree.PointEntry) []int64 {
	ids := make([]int64, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	return ids
}

func TestApplyAtomicity(t *testing.T) {
	ix := newTestIndex(t, -1, nil)
	if _, err := ix.Apply([]rtree.PointEntry{entry(1, 0, 0), entry(2, 1, 1)}, nil); err != nil {
		t.Fatal(err)
	}

	// Duplicate insert ID rejects the whole batch: point 3 must not land.
	if _, err := ix.Apply([]rtree.PointEntry{entry(3, 2, 2), entry(1, 9, 9)}, nil); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert: %v, want ErrDuplicateID", err)
	}
	// Unknown delete ID rejects the batch: point 2 must survive.
	if _, err := ix.Apply(nil, []int64{2, 77}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown delete: %v, want ErrUnknownID", err)
	}
	// Same ID inserted and deleted in one batch is ambiguous.
	if _, err := ix.Apply([]rtree.PointEntry{entry(4, 3, 3)}, []int64{4}); err == nil {
		t.Fatal("insert+delete of one ID in a batch accepted")
	}

	got := idsOf(ix.PointsSorted())
	want := []int64{1, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("points after rejected batches: %v, want %v", got, want)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	ix := newTestIndex(t, -1, nil)
	if _, err := ix.Apply(randEntries(rand.New(rand.NewSource(1)), 50, 0), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ix.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	seqBefore := snap.Seq

	if _, err := ix.Apply([]rtree.PointEntry{entry(100, 5, 5)}, []int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot still reflects the pre-mutation epoch.
	if snap.Seq != seqBefore {
		t.Fatalf("snapshot seq moved: %d -> %d", seqBefore, snap.Seq)
	}
	view, err := snap.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	var pts int
	if _, err := rtree.VisitLeaves(view, nil, func(_ storage.PageID, n *rtree.Node) error {
		pts += n.NumPoints()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pts != 50 {
		t.Fatalf("pinned snapshot sees %d points, want the original 50", pts)
	}
}

// TestLiveEquivalencePointSet is the package-level slice of the equivalence
// gate: after arbitrary interleavings of batches and compactions, the point
// set (and its canonical ID order) matches a straight replay of the ledger.
func TestLiveEquivalencePointSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := newTestIndex(t, -1, nil)

	model := map[int64]rtree.PointEntry{}
	nextID := int64(0)
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(model) == 0: // insert a small batch
			ins := randEntries(rng, 1+rng.Intn(8), nextID)
			nextID += int64(len(ins))
			if _, err := ix.Apply(ins, nil); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			for _, e := range ins {
				model[e.ID] = e
			}
		case op < 9: // delete a few existing points
			var del []int64
			for id := range model {
				del = append(del, id)
				if len(del) == 3 {
					break
				}
			}
			if _, err := ix.Apply(nil, del); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			for _, id := range del {
				delete(model, id)
			}
		default:
			if err := ix.Compact(); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		}
		if ix.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, ix.Len(), len(model))
		}
	}

	want := make([]rtree.PointEntry, 0, len(model))
	for _, e := range model {
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	got := ix.PointsSorted()
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCompactRetiresOldBase(t *testing.T) {
	var closes atomic.Int64
	ix := newTestIndex(t, -1, &closes)
	if _, err := ix.Apply(randEntries(rand.New(rand.NewSource(2)), 20, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil { // builds generation 1 (initial base is empty, nothing to close)
		t.Fatal(err)
	}
	snap, err := ix.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply(randEntries(rand.New(rand.NewSource(3)), 5, 100), nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil { // generation 2; generation 1 still pinned by snap
		t.Fatal(err)
	}
	if n := closes.Load(); n != 0 {
		t.Fatalf("base closed %d times while a snapshot pins it", n)
	}
	snap.Release()
	if n := closes.Load(); n != 1 {
		t.Fatalf("base closes after release = %d, want 1", n)
	}
	if ix.Len() != 25 {
		t.Fatalf("Len = %d, want 25", ix.Len())
	}
}

func TestFeedDeliveryAndShedding(t *testing.T) {
	ix := newTestIndex(t, -1, nil)
	if _, err := ix.Apply(randEntries(rand.New(rand.NewSource(4)), 10, 0), nil); err != nil {
		t.Fatal(err)
	}

	feed, seq, snap, err := ix.NewFeed(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 10 {
		t.Fatalf("feed snapshot %d points, want 10", len(snap))
	}
	if _, err := ix.Apply([]rtree.PointEntry{entry(100, 1, 1)}, []int64{0}); err != nil {
		t.Fatal(err)
	}
	u := <-feed.C
	if u.Seq != seq+1 || len(u.Ins) != 1 || len(u.Del) != 1 {
		t.Fatalf("update = %+v, want seq %d with 1 ins / 1 del", u, seq+1)
	}
	if u.Ins[0].ID != 100 || u.Del[0].ID != 0 {
		t.Fatalf("update ids = ins %d del %d", u.Ins[0].ID, u.Del[0].ID)
	}
	ix.CloseFeed(feed)
	if _, open := <-feed.C; open {
		t.Fatal("feed channel open after CloseFeed")
	}
	if feed.Shed() {
		t.Fatal("explicitly closed feed reports shed")
	}

	// A feed whose buffer fills is shed, and the writer never blocks.
	slow, _, _, err := ix.NewFeed(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ix.Apply([]rtree.PointEntry{entry(int64(200+i), 2, 2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	drained := 0
	for range slow.C {
		drained++
	}
	if !slow.Shed() {
		t.Fatal("overflowed feed not shed")
	}
	if drained < 1 || drained > 2 {
		t.Fatalf("shed feed delivered %d updates, want 1 or 2 (buffered before overflow)", drained)
	}
	st := ix.Stats()
	if st.ShedFeeds != 1 {
		t.Fatalf("ShedFeeds = %d, want 1", st.ShedFeeds)
	}
}

// TestFeedNoLostUpdates hammers NewFeed registration against concurrent
// Apply batches: every update after the snapshot seq must arrive, none
// duplicated — the atomic register+snapshot contract. Run with -race.
func TestFeedNoLostUpdates(t *testing.T) {
	ix := newTestIndex(t, -1, nil)
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	var idGen atomic.Int64
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				id := idGen.Add(1)
				if _, err := ix.Apply([]rtree.PointEntry{entry(id, float64(id), 0)}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	feed, seq, snap, err := ix.NewFeed(writers*perWriter + 8)
	if err != nil {
		t.Fatal(err)
	}
	close(start)
	wg.Wait()

	seen := map[int64]bool{}
	for _, e := range snap {
		seen[e.ID] = true
	}
	// Drain exactly the updates covering seq+1 .. final epoch.
	final := ix.Stats().Seq
	for at := seq; at < final; {
		u := <-feed.C
		if u.Seq != at+1 {
			t.Fatalf("update seq %d, want %d (gap or duplicate)", u.Seq, at+1)
		}
		at = u.Seq
		for _, e := range u.Ins {
			if seen[e.ID] {
				t.Fatalf("point %d delivered twice (snapshot+update overlap)", e.ID)
			}
			seen[e.ID] = true
		}
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("snapshot+updates cover %d points, want %d", len(seen), writers*perWriter)
	}
}

func TestConcurrentMutateCompactQuery(t *testing.T) {
	var closes atomic.Int64
	ix := newTestIndex(t, 32, &closes) // tight auto-compaction to force swaps mid-run
	rng := rand.New(rand.NewSource(5))
	if _, err := ix.Apply(randEntries(rng, 64, 0), nil); err != nil {
		t.Fatal(err)
	}
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := ix.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := snap.View(nil); err != nil {
					t.Error(err)
				}
				snap.Release()
			}
		}()
	}
	var idGen atomic.Int64
	idGen.Store(1000)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := idGen.Add(1)
				if _, err := ix.Apply([]rtree.PointEntry{entry(id, float64(id%97), float64(id%89))}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait() // writers done; background compactions may still be in flight
	close(stop)
	readers.Wait()
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 64+400 {
		t.Fatalf("Len = %d, want %d", ix.Len(), 64+400)
	}
	st := ix.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ran despite CompactEvery=32")
	}
	if st.DeltaPoints != 0 || st.Tombstones != 0 {
		t.Fatalf("delta %d / tombstones %d after final compact, want 0/0", st.DeltaPoints, st.Tombstones)
	}
}

func TestClosedIndexRejects(t *testing.T) {
	ix, err := New(Base{}, Config{Seal: memSeal(nil)})
	if err != nil {
		t.Fatal(err)
	}
	feed, _, _, err := ix.NewFeed(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-feed.C; open {
		t.Fatal("feed survived index close")
	}
	if feed.Shed() {
		t.Fatal("close-terminated feed reports shed")
	}
	if _, err := ix.Apply([]rtree.PointEntry{entry(1, 0, 0)}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply on closed: %v, want ErrClosed", err)
	}
	if _, err := ix.Acquire(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire on closed: %v, want ErrClosed", err)
	}
}
