package rcj

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
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
// adds and removes to a pair set and handing over a copy of it at every
// sync marker.
type streamReplay struct {
	t     *testing.T
	syncs chan map[[2]int64]bool
}

func newStreamReplay(t *testing.T, sub *Subscription) *streamReplay {
	// Buffered past any gate's batch count, so the replay goroutine never
	// waits on the test.
	r := &streamReplay{t: t, syncs: make(chan map[[2]int64]bool, 1024)}
	go func() {
		defer close(r.syncs)
		set := map[[2]int64]bool{}
		for ev := range sub.C {
			k := [2]int64{ev.Pair.P.ID, ev.Pair.Q.ID}
			switch ev.Type {
			case EventAdd:
				if set[k] {
					t.Errorf("add of present pair %v", k)
				}
				set[k] = true
			case EventRemove:
				if !set[k] {
					t.Errorf("remove of absent pair %v", k)
				}
				delete(set, k)
			case EventSync:
				if ev.Pairs != len(set) {
					t.Errorf("sync reports %d pairs, replay holds %d", ev.Pairs, len(set))
				}
				r.syncs <- maps.Clone(set)
			}
		}
	}()
	return r
}

// next returns the replayed set at the next sync.
func (r *streamReplay) next() map[[2]int64]bool {
	r.t.Helper()
	select {
	case set, ok := <-r.syncs:
		if !ok {
			r.t.Fatal("stream ended before the next sync")
		}
		return set
	case <-time.After(10 * time.Second):
		r.t.Fatal("no sync within 10s")
	}
	return nil
}

// subscriptionGate drives steps random mutation batches, one at a time,
// through the mutable indexes behind a subscription of q and p (the same
// index twice: a self-join), mirrored in the model maps. At the initial sync
// and at every batch's sync, the replayed stream must equal a fresh join
// over the model point sets; a compaction must send nothing.
func subscriptionGate(t *testing.T, rng *rand.Rand, q, p *Index, modelQ, modelP map[int64]Point, steps int) {
	t.Helper()
	self := q == p
	sub, err := SubscribeLive(context.Background(), q, p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Replay from a second goroutine while the mutations run, so delivery
	// overlaps application (the -race half).
	replay := newStreamReplay(t, sub)
	check := func(step int, what string) {
		t.Helper()
		got := replay.next()
		freshQ := mustIndex(t, modelPoints(modelQ), IndexConfig{})
		freshP := freshQ
		if !self {
			freshP = mustIndex(t, modelPoints(modelP), IndexConfig{})
		}
		want, _, err := testEng.RunCollect(bg, freshQ, freshP, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(keySet(want), got) {
			t.Fatalf("step %d (%s): replayed stream holds %d pairs, fresh join %d", step, what, len(got), len(want))
		}
	}

	check(-1, "initial")
	nextQ, nextP := int64(10000), int64(20000)
	if self {
		nextP = nextQ
	}
	deletes := 0
	for step := 0; step < steps; step++ {
		var what string
		if rng.Intn(2) == 0 {
			what = "Q " + mutateRandomly(t, rng, q, modelQ, &nextQ)
		} else if self {
			what = "P " + mutateRandomly(t, rng, p, modelP, &nextQ)
		} else {
			what = "P " + mutateRandomly(t, rng, p, modelP, &nextP)
		}
		if strings.HasSuffix(what, "compact") {
			continue
		}
		if strings.Contains(what, "delete") {
			deletes++
		}
		check(step, what)
	}
	sub.Close()
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended with %v", err)
	}
	for range replay.syncs {
		t.Fatal("a sync no batch accounts for")
	}
	if deletes == 0 {
		t.Fatal("no delete batch (the seed must exercise the delete path)")
	}
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

// TestLiveEquivalenceSubscription checks the other half of the gate for
// two-index joins: after every insert or delete batch on either side, the
// subscription event log, replayed, holds exactly the pair set of a fresh
// join, and a compaction delivers nothing.
func TestLiveEquivalenceSubscription(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	pPts := randomPoints(rng, 120)
	qPts := randomPoints(rng, 120)
	liveP, err := eng.NewMutableIndex(pPts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer liveP.Close()
	liveQ, err := eng.NewMutableIndex(qPts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer liveQ.Close()
	modelP, modelQ := map[int64]Point{}, map[int64]Point{}
	for _, p := range pPts {
		modelP[p.ID] = p
	}
	for _, p := range qPts {
		modelQ[p.ID] = p
	}
	subscriptionGate(t, rng, liveQ, liveP, modelQ, modelP, 40)
}

// TestLiveSubscriptionSelfJoin is the same gate for a self-join
// subscription.
func TestLiveSubscriptionSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	eng := NewEngine(EngineConfig{BufferPages: 1024})
	pts := randomPoints(rng, 150)
	ix, err := eng.NewMutableIndex(pts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	model := map[int64]Point{}
	for _, p := range pts {
		model[p.ID] = p
	}
	subscriptionGate(t, rng, ix, ix, model, model, 40)
}

// TestLiveSubscriptionSelfJoinLowID re-inserts a self-join point under a
// low ID: its pairs with higher-ID partners must stream too.
func TestLiveSubscriptionSelfJoinLowID(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(1)), 50)
	ix, err := NewEngine(EngineConfig{}).NewMutableIndex(pts, MutableConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	sub, err := SubscribeLive(context.Background(), ix, ix, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	replay := newStreamReplay(t, sub)
	replay.next()
	if _, err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	replay.next()
	pts[5] = Point{X: 500, Y: 500, ID: 5}
	if _, err := ix.Insert(pts[5]); err != nil {
		t.Fatal(err)
	}
	got := replay.next()
	fresh := mustIndex(t, pts, IndexConfig{})
	want, _, err := testEng.RunCollect(bg, fresh, fresh, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(want), got) {
		t.Fatalf("replayed stream holds %d pairs, fresh self-join %d", len(got), len(want))
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
		for _, x := range ps {
			if x.ID != a.ID && geom.DiscSign(a.P, b.P, x.P) <= 0 {
				return false
			}
		}
		for _, x := range qs {
			if x.ID != b.ID && geom.DiscSign(a.P, b.P, x.P) <= 0 {
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
