package rcj

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// pairBytes renders pairs in the deterministic total order with full float
// precision — the "byte-identical" comparison the live-equivalence gate is
// specified against.
func pairBytes(pairs []Pair) string {
	out := append([]Pair(nil), pairs...)
	SortPairsByDiameter(out)
	var b strings.Builder
	for _, pr := range out {
		fmt.Fprintf(&b, "%d,%d,%v,%v,%v\n", pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)
	}
	return b.String()
}

// streamReplay consumes a subscription stream in the background, applying
// adds/removes/resyncs to a pair set and snapshotting it at every sync
// marker. waitSync blocks until a sync at or past the given epoch arrives.
type streamReplay struct {
	t  *testing.T
	mu sync.Mutex

	set      map[[2]int64]bool
	syncSeq  uint64
	syncSet  map[[2]int64]bool
	nResyncs int
	synced   chan struct{} // pulsed (close+replace) on every sync
}

func newStreamReplay(t *testing.T, sub *Subscription) *streamReplay {
	r := &streamReplay{t: t, set: map[[2]int64]bool{}, synced: make(chan struct{})}
	go func() {
		for ev := range sub.C {
			r.mu.Lock()
			switch ev.Type {
			case EventAdd:
				r.set[[2]int64{ev.Pair.P.ID, ev.Pair.Q.ID}] = true
			case EventRemove:
				delete(r.set, [2]int64{ev.Pair.P.ID, ev.Pair.Q.ID})
			case EventResync:
				r.set = map[[2]int64]bool{}
				r.nResyncs++
			case EventSync:
				if ev.Pairs != len(r.set) {
					r.t.Errorf("sync reports %d pairs, replay holds %d", ev.Pairs, len(r.set))
				}
				r.syncSeq = ev.Seq
				r.syncSet = map[[2]int64]bool{}
				for k := range r.set {
					r.syncSet[k] = true
				}
				close(r.synced)
				r.synced = make(chan struct{})
			}
			r.mu.Unlock()
		}
	}()
	return r
}

func (r *streamReplay) waitSync(seq uint64) map[[2]int64]bool {
	r.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		r.mu.Lock()
		if r.syncSeq >= seq {
			out := r.syncSet
			r.mu.Unlock()
			return out
		}
		ch := r.synced
		r.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			r.t.Fatalf("no sync at seq >= %d within 10s", seq)
		}
	}
}

func (r *streamReplay) resyncs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nResyncs
}

// mutateRandomly applies one random step to a mutable index and mirrors it
// in the model map; returns a description for failure messages.
func mutateRandomly(t *testing.T, rng *rand.Rand, ix *Index, model map[int64]Point, nextID *int64) string {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 6 || len(model) == 0:
		n := 1 + rng.Intn(6)
		ins := make([]Point, n)
		for i := range ins {
			ins[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: *nextID}
			*nextID++
		}
		if _, err := ix.Insert(ins...); err != nil {
			t.Fatalf("insert: %v", err)
		}
		for _, p := range ins {
			model[p.ID] = p
		}
		return fmt.Sprintf("insert %d", n)
	case op < 9:
		var del []int64
		for id := range model {
			del = append(del, id)
			if len(del) == 2 {
				break
			}
		}
		if _, err := ix.Delete(del...); err != nil {
			t.Fatalf("delete: %v", err)
		}
		for _, id := range del {
			delete(model, id)
		}
		return fmt.Sprintf("delete %d", len(del))
	default:
		if err := ix.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		return "compact"
	}
}

func modelPoints(model map[int64]Point) []Point {
	pts := make([]Point, 0, len(model))
	for _, p := range model {
		pts = append(pts, p)
	}
	return pts
}

// TestLiveEquivalenceJoin is the live-equivalence gate for two-set joins:
// after every random interleaving of inserts, deletes, and compactions, a
// query over the live indexes is byte-identical to one over fresh
// batch-built indexes holding the same final point sets.
func TestLiveEquivalenceJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	ctx := context.Background()

	// P opens from a sealed base (the OpenMutableIndex path, on-disk
	// generations); Q is born in memory (the NewMutableIndex path).
	dir := t.TempDir()
	basePts := randomPoints(rng, 200)
	base := mustIndex(t, basePts, IndexConfig{})
	basePath := filepath.Join(dir, "p.rcjx")
	if err := base.Save(basePath); err != nil {
		t.Fatal(err)
	}
	base.Close()
	liveP, err := eng.OpenMutableIndex(basePath, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer liveP.Close()
	qPts := randomPoints(rng, 150)
	liveQ, err := eng.NewMutableIndex(qPts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer liveQ.Close()

	modelP, modelQ := map[int64]Point{}, map[int64]Point{}
	for _, p := range basePts {
		modelP[p.ID] = p
	}
	for _, p := range qPts {
		modelQ[p.ID] = p
	}
	nextP, nextQ := int64(10000), int64(20000)

	// The full join, and a corner window: with liveQ as the outer input the
	// Region pushdown skips subtrees of the merged view (inflated MBRs under
	// tombstones, a synthetic root over base and delta) and must still keep
	// every qualifying pair.
	queries := []Query{{}, {Region: &Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}}}
	verify := func(step int, what string) {
		freshP, err := eng.BuildIndex(modelPoints(modelP), IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer freshP.Close()
		freshQ, err := eng.BuildIndex(modelPoints(modelQ), IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer freshQ.Close()
		for _, qry := range queries {
			got, _, err := eng.RunCollect(ctx, liveQ, liveP, qry)
			if err != nil {
				t.Fatalf("step %d (%s): live join: %v", step, what, err)
			}
			want, _, err := eng.RunCollect(ctx, freshQ, freshP, qry)
			if err != nil {
				t.Fatalf("step %d (%s): batch join: %v", step, what, err)
			}
			if g, w := pairBytes(got), pairBytes(want); g != w {
				t.Fatalf("step %d (%s, region %v): live join diverged from batch build\nlive:  %d pairs\nbatch: %d pairs",
					step, what, qry.Region != nil, len(got), len(want))
			}
		}
	}

	verify(-1, "initial")
	for step := 0; step < 60; step++ {
		var what string
		if rng.Intn(2) == 0 {
			what = "P " + mutateRandomly(t, rng, liveP, modelP, &nextP)
		} else {
			what = "Q " + mutateRandomly(t, rng, liveQ, modelQ, &nextQ)
		}
		if step%10 == 9 || step == 59 {
			verify(step, what)
		}
	}
}

// TestLiveEquivalenceSelfJoin covers the self-join path, where tombstones
// disable the face rule on both traversal roles at once.
func TestLiveEquivalenceSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	ctx := context.Background()
	pts := randomPoints(rng, 250)
	ix, err := eng.NewMutableIndex(pts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	model := map[int64]Point{}
	for _, p := range pts {
		model[p.ID] = p
	}
	nextID := int64(10000)

	for step := 0; step < 40; step++ {
		what := mutateRandomly(t, rng, ix, model, &nextID)
		if step%8 != 7 && step != 39 {
			continue
		}
		got, _, err := eng.RunCollect(ctx, ix, ix, Query{})
		if err != nil {
			t.Fatalf("step %d (%s): live self-join: %v", step, what, err)
		}
		fresh, err := eng.BuildIndex(modelPoints(model), IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.RunCollect(ctx, fresh, fresh, Query{})
		fresh.Close()
		if err != nil {
			t.Fatalf("step %d (%s): batch self-join: %v", step, what, err)
		}
		if pairBytes(got) != pairBytes(want) {
			t.Fatalf("step %d (%s): live self-join diverged (%d pairs vs %d)",
				step, what, len(got), len(want))
		}
	}
}

// TestLiveEquivalenceSubscription checks the other half of the gate: the
// subscription event log, replayed, lands on exactly the pair set of a
// fresh join over the final points — through insert maintenance, the
// deletion resync path, and a compaction (which must deliver nothing).
func TestLiveEquivalenceSubscription(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	ctx := context.Background()
	pPts := randomPoints(rng, 120)
	qPts := randomPoints(rng, 120)
	liveP, err := eng.NewMutableIndex(pPts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	liveQ, err := eng.NewMutableIndex(qPts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	sub, err := SubscribeLive(ctx, liveQ, liveP, 4096)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the stream into a pair set from a second goroutine while the
	// mutations run, so delivery overlaps application (the -race half).
	// Every EventSync snapshots the replayed set with its seq, so the main
	// goroutine can wait for the sync that covers the final epoch.
	replay := newStreamReplay(t, sub)

	modelP, modelQ := map[int64]Point{}, map[int64]Point{}
	for _, p := range pPts {
		modelP[p.ID] = p
	}
	for _, p := range qPts {
		modelQ[p.ID] = p
	}
	nextP, nextQ := int64(10000), int64(20000)
	for step := 0; step < 30; step++ {
		if rng.Intn(2) == 0 {
			mutateRandomly(t, rng, liveP, modelP, &nextP)
		} else {
			mutateRandomly(t, rng, liveQ, modelQ, &nextQ)
		}
	}
	// Quiesce deterministically: one last delete forces a resync, whose
	// full-state replay is stamped with the final epoch sequence.
	var finalSeq uint64
	for id := range modelQ {
		seq, err := liveQ.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		delete(modelQ, id)
		finalSeq = seq
		break
	}
	final := replay.waitSync(finalSeq)
	sub.Close()
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended with %v", err)
	}
	if replay.resyncs() == 0 {
		t.Fatal("no resync despite deletions (seed must exercise the delete path)")
	}
	liveP.Close()
	liveQ.Close()

	freshP := mustIndex(t, modelPoints(modelP), IndexConfig{})
	freshQ := mustIndex(t, modelPoints(modelQ), IndexConfig{})
	want, _, err := testEng.RunCollect(bg, freshQ, freshP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(want), final) {
		t.Fatalf("replayed stream holds %d pairs, fresh join %d", len(final), len(want))
	}
}

// TestLiveSubscriptionSelfJoin replays a self-join stream.
func TestLiveSubscriptionSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	pts := randomPoints(rng, 150)
	ix, err := eng.NewMutableIndex(pts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SubscribeLive(context.Background(), ix, ix, 4096)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]Point{}
	for _, p := range pts {
		model[p.ID] = p
	}
	nextID := int64(10000)
	replay := newStreamReplay(t, sub)
	for step := 0; step < 25; step++ {
		mutateRandomly(t, rng, ix, model, &nextID)
	}
	var finalSeq uint64
	for id := range model {
		seq, err := ix.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		delete(model, id)
		finalSeq = seq
		break
	}
	final := replay.waitSync(finalSeq)
	sub.Close()
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended with %v", err)
	}
	ix.Close()
	fresh := mustIndex(t, modelPoints(model), IndexConfig{})
	want, _, err := testEng.RunCollect(bg, fresh, fresh, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(want), final) {
		t.Fatalf("replayed self-join stream holds %d pairs, fresh self-join %d", len(final), len(want))
	}
}

// TestLiveSlowSubscriberShed verifies a consumer that stops reading is shed
// with ErrSlowSubscriber instead of stalling writers.
func TestLiveSlowSubscriberShed(t *testing.T) {
	eng := NewEngine(EngineConfig{BufferPages: 256})
	// P is a frozen far-apart row; every Q insert lands next to its own P
	// point, so each batch provokes at least one add event.
	pPts := make([]Point, 32)
	for i := range pPts {
		pPts[i] = Point{X: float64(i) * 1000, Y: 0, ID: int64(i)}
	}
	liveP := mustIndex(t, pPts, IndexConfig{})
	defer liveP.Close()
	liveQ, err := eng.NewMutableIndex(nil, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer liveQ.Close()
	sub, err := SubscribeLive(context.Background(), liveQ, liveP, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // nobody reads sub.C: the feed must overflow
		if _, err := liveQ.Insert(Point{X: float64(i) * 1000, Y: 1, ID: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for range sub.C {
	}
	if err := sub.Err(); !errors.Is(err, ErrSlowSubscriber) {
		t.Fatalf("subscription ended with %v, want ErrSlowSubscriber", err)
	}
}

// TestLiveGenerationByteIdentity: the generation a compaction seals is
// byte-identical to a cold build+save over the ID-sorted dumped point set —
// the contract the live-smoke byte-diff (and remote generation serving)
// rests on.
func TestLiveGenerationByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	dir := t.TempDir()
	basePts := randomPoints(rng, 300)
	base := mustIndex(t, basePts, IndexConfig{})
	basePath := filepath.Join(dir, "live.rcjx")
	if err := base.Save(basePath); err != nil {
		t.Fatal(err)
	}
	base.Close()
	ix, err := eng.OpenMutableIndex(basePath, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	if _, err := ix.Insert(randomPointsAt(rng, 50, 1000)...); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(3, 7, 250, 251, 252); err != nil {
		t.Fatal(err)
	}
	sealSeq := ix.Epoch() // seals the point set as of this epoch
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	st, ok := ix.LiveStats()
	if !ok || st.Generation == "" {
		t.Fatalf("no sealed generation after compact (stats %+v)", st)
	}
	if want := storage.GenerationPath(basePath, sealSeq); st.Generation != want {
		t.Fatalf("generation path %q, want %q", st.Generation, want)
	}

	pts, err := ix.Points() // ID-sorted for mutable indexes: the canonical rebuild input
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	freshPath := filepath.Join(dir, "rebuilt.rcjx")
	if err := fresh.Save(freshPath); err != nil {
		t.Fatal(err)
	}
	gen, err := os.ReadFile(st.Generation)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gen, rebuilt) {
		t.Fatalf("sealed generation differs from cold rebuild (%d vs %d bytes)", len(gen), len(rebuilt))
	}
}

func randomPointsAt(rng *rand.Rand, n int, idBase int64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: idBase + int64(i)}
	}
	return pts
}

// TestMutableAPIErrors pins the typed error surface.
func TestMutableAPIErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	eng := NewEngine(EngineConfig{})
	frozen := mustIndex(t, randomPoints(rng, 10), IndexConfig{})
	if _, err := frozen.Insert(Point{ID: 99}); !errors.Is(err, ErrImmutableIndex) {
		t.Fatalf("Insert on immutable: %v", err)
	}
	if _, err := frozen.Delete(1); !errors.Is(err, ErrImmutableIndex) {
		t.Fatalf("Delete on immutable: %v", err)
	}
	if err := frozen.Compact(); !errors.Is(err, ErrImmutableIndex) {
		t.Fatalf("Compact on immutable: %v", err)
	}
	if frozen.Mutable() || frozen.Epoch() != 0 {
		t.Fatal("immutable index claims mutability")
	}
	if _, err := SubscribeLive(context.Background(), frozen, frozen, 4); !errors.Is(err, ErrImmutableIndex) {
		t.Fatalf("SubscribeLive with no mutable side: %v", err)
	}

	ix, err := eng.NewMutableIndex(randomPoints(rng, 10), MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if !ix.Mutable() {
		t.Fatal("mutable index claims immutability")
	}
	if _, err := ix.Insert(Point{X: 1, Y: 1, ID: 3}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := ix.Delete(12345); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown delete: %v", err)
	}
	if err := ix.Save(t.TempDir() + "/x.rcjx"); err == nil {
		t.Fatal("Save on a mutable index succeeded; want the compaction-owns-persistence error")
	}
}

// TestLiveReadsBesideTheJoin covers the reads that used to bypass the pinned
// merged view and crash on a mutable index: the L1 join, VerifyPair and
// Index.Stats. Over a live index holding a delta and tombstones each
// must see exactly the current point set — checked against the index-free
// L1 oracle and a brute ring test over Index.Points().
func TestLiveReadsBesideTheJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	eng := NewEngine(EngineConfig{})
	p, err := eng.NewMutableIndex(randomPoints(rng, 150), MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Insert(randomPointsAt(rng, 60, 1000)...); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Delete(3, 17, 42, 77, 1001); err != nil {
		t.Fatal(err)
	}
	if ls, _ := p.LiveStats(); ls.DeltaPoints == 0 || ls.Tombstones == 0 {
		t.Fatalf("want a delta and tombstones, have %+v", ls)
	}
	q := mustIndex(t, randomPoints(rng, 120), IndexConfig{})

	entriesOf := func(ix *Index) []rtree.PointEntry {
		pts, err := ix.Points()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]rtree.PointEntry, len(pts))
		for i, pt := range pts {
			out[i] = pt.entry()
		}
		return out
	}
	ps, qs := entriesOf(p), entriesOf(q)

	if st := p.Stats(); st.Points != len(ps) || st.Points != 150+60-5 {
		t.Errorf("Stats().Points = %d, Points() has %d, want %d", st.Points, len(ps), 150+60-5)
	}

	l1Keys := func(pairs []Pair) map[[2]int64]bool {
		m := make(map[[2]int64]bool, len(pairs))
		for _, pr := range pairs {
			m[[2]int64{pr.P.ID, pr.Q.ID}] = true
		}
		return m
	}
	oracleKeys := func(pairs []core.Pair) map[[2]int64]bool { return l1Keys(fromCorePairs(pairs)) }
	got, st, err := eng.RunCollect(bg, q, p, Query{Metric: L1})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleKeys(core.BruteForceL1Pairs(ps, qs, false)); !sameKeys(l1Keys(got), want) {
		t.Errorf("L1 join over a live P: %s", diffKeys(l1Keys(got), want))
	}
	if st.NodeAccesses == 0 || st.Results != int64(len(got)) {
		t.Errorf("L1 join stats not tagged: %+v for %d pairs", st, len(got))
	}
	gotSelf, _, err := eng.RunCollect(bg, p, p, Query{Metric: L1})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleKeys(core.BruteForceL1Pairs(ps, ps, true)); !sameKeys(l1Keys(gotSelf), want) {
		t.Errorf("L1 self-join over a live index: %s", diffKeys(l1Keys(gotSelf), want))
	}

	ringEmpty := func(a, b rtree.PointEntry) bool {
		c := geom.EnclosingCircle(a.P, b.P)
		for _, x := range ps {
			if x.ID != a.ID && c.Covers(x.P) {
				return false
			}
		}
		for _, x := range qs {
			if x.ID != b.ID && c.Covers(x.P) {
				return false
			}
		}
		return true
	}
	valid := 0
	for i := 0; i < len(ps); i += 3 {
		for j := 0; j < len(qs); j += 3 {
			a, b := ps[i], qs[j]
			ok, err := VerifyPair(q, p, Point{X: a.P.X, Y: a.P.Y, ID: a.ID}, Point{X: b.P.X, Y: b.P.Y, ID: b.ID})
			if err != nil {
				t.Fatal(err)
			}
			if want := ringEmpty(a, b); ok != want {
				t.Errorf("VerifyPair(<%d,%d>) = %v, brute check says %v", a.ID, b.ID, ok, want)
			} else if ok {
				valid++
			}
		}
	}
	if valid == 0 {
		t.Error("no valid pair in the sampled cross product")
	}
}

// TestLiveConcurrentQueryMutateCompact runs joins, mutations, and
// compactions concurrently: every join must succeed on its pinned snapshot.
// Run under -race this is the acceptance test for the epoch handoff.
func TestLiveConcurrentQueryMutateCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	eng := NewEngine(EngineConfig{BufferPages: 2048})
	ctx := context.Background()
	ix, err := eng.NewMutableIndex(randomPoints(rng, 300), MutableConfig{CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := eng.RunCollect(ctx, ix, ix, Query{}); err != nil {
					t.Errorf("concurrent self-join: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if _, err := ix.Insert(Point{X: rand.Float64() * 1000, Y: rand.Float64() * 1000, ID: int64(10000 + i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%50 == 49 {
			if _, err := ix.Delete(int64(10000 + i)); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if st, _ := ix.LiveStats(); st.Compactions == 0 {
		t.Fatal("no background compaction ran despite CompactEvery=64")
	}
}
