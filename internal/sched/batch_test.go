package sched

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/rcj"
)

// blockSlot occupies the scheduler's only slot so subsequent requests are
// forced to queue (and, when batching is on, to batch). Returns the release.
func blockSlot(t *testing.T, s *Scheduler) func() {
	t.Helper()
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return release
}

// openBatchMembers counts the members across the scheduler's open batches.
func openBatchMembers(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.batches {
		n += len(b.members)
	}
	return n
}

func openBatches(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// soloPairs runs qry directly on the engine, bypassing the scheduler: the
// reference result every batched member must reproduce byte-identically.
func soloPairs(t *testing.T, eng *rcj.Engine, ix *rcj.Index, qry rcj.Query) ([]rcj.Pair, rcj.Stats) {
	t.Helper()
	var st rcj.Stats
	q := qry
	q.Stats = &st
	var out []rcj.Pair
	for pr, err := range eng.Run(context.Background(), ix, ix, q) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pr)
	}
	return out, st
}

// assertExactPairs is the byte-identical check: same pairs, same order, same
// float bits (Pair is comparable, so == is bit equality on the floats).
func assertExactPairs(t *testing.T, label string, got, want []rcj.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// memberResult is one batched request's outcome, collected in its goroutine
// and asserted on the main one.
type memberResult struct {
	pairs []rcj.Pair
	stats rcj.Stats
	err   error
}

// runMember issues one self-join Run through the scheduler and drains it.
func runMember(ctx context.Context, s *Scheduler, ix *rcj.Index, qry rcj.Query, out *memberResult, done chan<- struct{}) {
	defer close(done)
	seq, err := s.Run(ctx, ix, ix, qry, &out.stats)
	if err != nil {
		out.err = err
		return
	}
	for pr, err := range seq {
		if err != nil {
			out.err = err
			return
		}
		out.pairs = append(out.pairs, pr)
	}
}

// TestBatchSharesTraversal pins the core batching property: N identical
// queued requests are served by ONE envelope traversal — each member's
// stream byte-identical to a solo run, per-member stats exact, and the
// traversal's buffer counters aggregated exactly once.
func TestBatchSharesTraversal(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	qry := rcj.Query{MaxDiameter: 400}
	want, wantSt := soloPairs(t, eng, p, qry)
	if len(want) == 0 {
		t.Fatal("reference query produced no pairs")
	}

	release := blockSlot(t, s)
	base := s.Snapshot()
	const n = 4
	results := make([]memberResult, n)
	dones := make([]chan struct{}, n)
	for i := range results {
		dones[i] = make(chan struct{})
		go runMember(context.Background(), s, p, qry, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == n })
	if got := openBatches(s); got != 1 {
		t.Fatalf("%d open batches, want 1", got)
	}
	if got := s.Snapshot().Queued; got != 1 {
		t.Fatalf("batch occupies %d queue slots, want 1", got)
	}
	release()
	for _, done := range dones {
		<-done
	}

	for i := range results {
		if results[i].err != nil {
			t.Fatalf("member %d: %v", i, results[i].err)
		}
		assertExactPairs(t, "member", results[i].pairs, want)
		if results[i].stats.Results != int64(len(want)) {
			t.Fatalf("member %d: stats results %d, want %d", i, results[i].stats.Results, len(want))
		}
		// The shared traversal's logical accesses are deterministic: each
		// member reports exactly the solo run's NodeAccesses.
		if results[i].stats.NodeAccesses != wantSt.NodeAccesses {
			t.Fatalf("member %d: node accesses %d, want %d", i, results[i].stats.NodeAccesses, wantSt.NodeAccesses)
		}
	}

	snap := s.Snapshot()
	if snap.SharedBatches != base.SharedBatches+1 {
		t.Fatalf("shared batches %d, want %d", snap.SharedBatches, base.SharedBatches+1)
	}
	if snap.BatchedRequests != base.BatchedRequests+n {
		t.Fatalf("batched requests %d, want %d", snap.BatchedRequests, base.BatchedRequests+n)
	}
	if snap.Admitted != base.Admitted+n || snap.Completed != base.Completed+n {
		t.Fatalf("admitted/completed %d/%d, want +%d each over %d/%d",
			snap.Admitted, snap.Completed, n, base.Admitted, base.Completed)
	}
	if snap.PairsEmitted != base.PairsEmitted+int64(n*len(want)) {
		t.Fatalf("pairs emitted %d, want %d", snap.PairsEmitted, base.PairsEmitted+int64(n*len(want)))
	}
	// ONE traversal, ONE aggregation: the scheduler's buffer counters grew
	// by the traversal's accesses, not N× them.
	if got := snap.BufferAccesses - base.BufferAccesses; got != wantSt.NodeAccesses {
		t.Fatalf("buffer accesses grew %d, want exactly one traversal's %d", got, wantSt.NodeAccesses)
	}
	if snap.InFlight != 0 || snap.Queued != 0 || openBatches(s) != 0 {
		t.Fatalf("leftover state: %+v, %d open batches", snap, openBatches(s))
	}
}

// TestBatchMixedPredicatesEquivalence is the equivalence gate: members with
// DIFFERENT predicates (diameter caps, distance floors, region windows,
// limits) share one envelope traversal, and every member's demuxed stream is
// byte-identical to its own solo pushdown run.
func TestBatchMixedPredicatesEquivalence(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	queries := []rcj.Query{
		{MaxDiameter: 300},
		{MaxDiameter: 500, Region: &rcj.Rect{MinX: 100, MinY: 100, MaxX: 700, MaxY: 700}},
		{MaxDiameter: 400, MinDistance: 50},
		{MaxDiameter: 600, Limit: 7},
		{}, // unbounded member: the envelope degenerates to a full join
	}
	want := make([][]rcj.Pair, len(queries))
	for i, q := range queries {
		want[i], _ = soloPairs(t, eng, p, q)
	}

	release := blockSlot(t, s)
	results := make([]memberResult, len(queries))
	dones := make([]chan struct{}, len(queries))
	for i, q := range queries {
		dones[i] = make(chan struct{})
		go runMember(context.Background(), s, p, q, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == len(queries) })
	if got := openBatches(s); got != 1 {
		t.Fatalf("%d open batches, want 1 (all shapes share a key)", got)
	}
	release()
	for _, done := range dones {
		<-done
	}

	for i := range results {
		if results[i].err != nil {
			t.Fatalf("member %d: %v", i, results[i].err)
		}
		assertExactPairs(t, "member", results[i].pairs, want[i])
		if results[i].stats.Results != int64(len(want[i])) {
			t.Fatalf("member %d: stats results %d, want %d", i, results[i].stats.Results, len(want[i]))
		}
	}
	if lim := len(results[3].pairs); lim != 7 {
		t.Fatalf("limit member got %d pairs, want 7", lim)
	}
}

// TestBatchAllLimits pins Limit semantics inside a batch: every member gets
// exactly its solo run's prefix, and the traversal never does more work
// than a full join. (The demux breaks as soon as every member is done; how
// far the producer ran ahead by then depends on the stream buffer, so this
// asserts a bound rather than a strict saving.)
func TestBatchAllLimits(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	full, fullSt := soloPairs(t, eng, p, rcj.Query{})
	if len(full) < 20 {
		t.Skipf("dataset too small: %d pairs", len(full))
	}
	qry := rcj.Query{Limit: 5}
	want, _ := soloPairs(t, eng, p, qry)

	release := blockSlot(t, s)
	results := make([]memberResult, 2)
	dones := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range results {
		go runMember(context.Background(), s, p, qry, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	release()
	for _, done := range dones {
		<-done
	}
	for i := range results {
		if results[i].err != nil {
			t.Fatal(results[i].err)
		}
		assertExactPairs(t, "limit member", results[i].pairs, want)
		if results[i].stats.NodeAccesses > fullSt.NodeAccesses {
			t.Fatalf("limited batch did %d accesses, full join does %d",
				results[i].stats.NodeAccesses, fullSt.NodeAccesses)
		}
	}
}

// TestBatchMemberCancel pins detachment: a member whose context ends while
// the batch is queued gets its context error; the remaining member still
// runs (as a degenerate batch of one) and gets exact solo results.
func TestBatchMemberCancel(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	qry := rcj.Query{MaxDiameter: 400}
	want, _ := soloPairs(t, eng, p, qry)

	release := blockSlot(t, s)
	base := s.Snapshot()
	ctxB, cancelB := context.WithCancel(context.Background())
	var a, b memberResult
	doneA, doneB := make(chan struct{}), make(chan struct{})
	go runMember(context.Background(), s, p, qry, &a, doneA)
	go runMember(ctxB, s, p, qry, &b, doneB)
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	cancelB()
	<-doneB
	if !errors.Is(b.err, context.Canceled) {
		t.Fatalf("cancelled member returned %v, want context.Canceled", b.err)
	}
	release()
	<-doneA
	if a.err != nil {
		t.Fatal(a.err)
	}
	assertExactPairs(t, "surviving member", a.pairs, want)

	snap := s.Snapshot()
	if snap.SharedBatches != base.SharedBatches {
		t.Fatalf("a batch of one counted as shared: %d -> %d", base.SharedBatches, snap.SharedBatches)
	}
	if snap.Admitted != base.Admitted+1 || snap.Completed != base.Completed+1 {
		t.Fatalf("admitted/completed %d/%d, want exactly one more than %d/%d",
			snap.Admitted, snap.Completed, base.Admitted, base.Completed)
	}
}

// TestBatchAllMembersCancel pins full abandonment: when every member
// detaches before the grant, the batch leaves the queue and the freed slot
// goes unclaimed — nothing executes.
func TestBatchAllMembersCancel(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	release := blockSlot(t, s)
	base := s.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	results := make([]memberResult, 2)
	dones := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range results {
		go runMember(ctx, s, p, rcj.Query{}, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	cancel()
	for _, done := range dones {
		<-done
	}
	for i := range results {
		if !errors.Is(results[i].err, context.Canceled) {
			t.Fatalf("member %d returned %v, want context.Canceled", i, results[i].err)
		}
	}
	waitFor(t, func() bool { return openBatches(s) == 0 && s.Snapshot().Queued == 0 })
	release()
	snap := s.Snapshot()
	if snap.InFlight != 0 {
		t.Fatalf("in flight %d after abandoned batch, want 0", snap.InFlight)
	}
	if snap.Admitted != base.Admitted || snap.Completed != base.Completed {
		t.Fatalf("abandoned batch executed: %+v vs base %+v", snap, base)
	}
}

// TestBatchPiggybackBeatsQueueBound pins the capacity property: batch
// members ride ONE queue slot, so a full queue still admits requests that
// can join an open batch — and still rejects ones that cannot.
func TestBatchPiggybackBeatsQueueBound(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 1, Batch: BatchConfig{Enabled: true}})
	qry := rcj.Query{MaxDiameter: 400}
	want, _ := soloPairs(t, eng, p, qry)

	release := blockSlot(t, s)
	results := make([]memberResult, 3)
	dones := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	go runMember(context.Background(), s, p, qry, &results[0], dones[0])
	waitFor(t, func() bool { return openBatchMembers(s) == 1 })
	// The queue is now full (the batch's waiter). Two more compatible
	// requests must still get in by joining the batch...
	go runMember(context.Background(), s, p, qry, &results[1], dones[1])
	go runMember(context.Background(), s, p, qry, &results[2], dones[2])
	waitFor(t, func() bool { return openBatchMembers(s) == 3 })
	// ...while an incompatible one (TopK is never batched) is rejected.
	if _, err := s.Run(context.Background(), p, p, rcj.Query{TopK: 5}, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("incompatible request on a full queue returned %v, want ErrOverloaded", err)
	}
	release()
	for _, done := range dones {
		<-done
	}
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("member %d: %v", i, results[i].err)
		}
		assertExactPairs(t, "member", results[i].pairs, want)
	}
}

// TestBatchKeySeparation pins the compatibility rule: different parallelism,
// algorithm or metric shapes form distinct batches — an L1 request never
// rides an L2 traversal (whose envelope would hand it Euclidean pairs), while
// two L1 requests still share one.
func TestBatchKeySeparation(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	// Forced INJ is the algorithm an L1 query resolves to, so the metric is
	// the only thing that tells the two keys apart.
	l2 := rcj.Query{MaxDiameter: 400, Algorithm: rcj.INJ, ForceAlgorithm: true}
	l1 := rcj.Query{MaxDiameter: 400, Metric: rcj.L1}
	wantL2, _ := soloPairs(t, eng, p, l2)
	wantL1, _ := soloPairs(t, eng, p, l1)
	if len(wantL1) == 0 || len(wantL1) == len(wantL2) {
		t.Fatalf("the two metrics select %d and %d pairs: the test cannot tell them apart", len(wantL2), len(wantL1))
	}
	release := blockSlot(t, s)
	par2 := l2
	par2.Parallelism = 2
	queries := []rcj.Query{l2, par2, l1, l1}
	results := make([]memberResult, len(queries))
	dones := make([]chan struct{}, len(queries))
	for i, qry := range queries {
		dones[i] = make(chan struct{})
		go runMember(context.Background(), s, p, qry, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == len(queries) })
	if got := openBatches(s); got != 3 {
		t.Fatalf("%d open batches, want 3 (parallelism and metric are part of the key)", got)
	}
	release()
	for _, done := range dones {
		<-done
	}
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("member %d: %v", i, results[i].err)
		}
	}
	assertExactPairs(t, "L2 member", results[0].pairs, wantL2)
	assertExactPairs(t, "first L1 member", results[2].pairs, wantL1)
	assertExactPairs(t, "second L1 member", results[3].pairs, wantL1)
}

// TestBatchDrain pins the drain contract for batches: a queued batch was
// admitted, so it runs to completion; new requests are rejected.
func TestBatchDrain(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	qry := rcj.Query{MaxDiameter: 400}
	want, _ := soloPairs(t, eng, p, qry)

	release := blockSlot(t, s)
	results := make([]memberResult, 2)
	dones := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range results {
		go runMember(context.Background(), s, p, qry, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	s.BeginDrain()
	if _, err := s.Run(context.Background(), p, p, qry, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("request during drain returned %v, want ErrDraining", err)
	}
	release()
	for _, done := range dones {
		<-done
	}
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("member %d: %v", i, results[i].err)
		}
		assertExactPairs(t, "drained member", results[i].pairs, want)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConsumerBreak pins mid-stream abandonment: a member that stops
// consuming is skipped by the demultiplexer without stalling batch-mates.
func TestBatchConsumerBreak(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	want, _ := soloPairs(t, eng, p, rcj.Query{})
	if len(want) < 10 {
		t.Skipf("dataset too small: %d pairs", len(want))
	}

	release := blockSlot(t, s)
	var full memberResult
	doneFull, doneBrk := make(chan struct{}), make(chan struct{})
	var brk []rcj.Pair
	var brkErr error
	go runMember(context.Background(), s, p, rcj.Query{}, &full, doneFull)
	go func() {
		defer close(doneBrk)
		seq, err := s.Run(context.Background(), p, p, rcj.Query{}, nil)
		if err != nil {
			brkErr = err
			return
		}
		for pr, err := range seq {
			if err != nil {
				brkErr = err
				return
			}
			brk = append(brk, pr)
			if len(brk) == 3 {
				break
			}
		}
	}()
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	release()
	<-doneFull
	<-doneBrk
	if full.err != nil || brkErr != nil {
		t.Fatalf("errs: full=%v break=%v", full.err, brkErr)
	}
	assertExactPairs(t, "full member", full.pairs, want)
	assertExactPairs(t, "broken member prefix", brk, want[:3])
}

// TestBatchAbandonedFreesSlot pins the slot lifetime of a batch nobody reads
// any more: when every member walks away after the grant, the traversal is
// cancelled and the slot comes back at cancellation latency, not after the
// rest of a traversal that — emitting nothing — would never have looked at
// its members again.
func TestBatchAbandonedFreesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]rcj.Point, 20000)
	for i := range pts {
		pts[i] = rcj.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: int64(i)}
	}
	eng := rcj.NewEngine(rcj.EngineConfig{})
	ix, err := eng.BuildIndex(pts, rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// No pair is 1e9 apart: the whole traversal runs and yields no slice.
	silent := rcj.Query{MinDistance: 1e9}
	start := time.Now()
	soloPairs(t, eng, ix, silent)
	traversal := time.Since(start)

	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	release := blockSlot(t, s)
	base := s.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make([]memberResult, 2)
	dones := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range results {
		go runMember(ctx, s, ix, silent, &results[i], dones[i])
	}
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	release()
	// Both members admitted: the envelope traversal holds the slot.
	waitFor(t, func() bool { return s.Snapshot().Admitted == base.Admitted+2 })
	cancel()
	abandoned := time.Now()
	for _, done := range dones {
		<-done
	}
	waitFor(t, func() bool { return s.Snapshot().InFlight == 0 })
	if held := time.Since(abandoned); held > traversal/4 {
		t.Fatalf("abandoned batch held its slot %v; the uncancelled traversal takes %v", held, traversal)
	}
}

// TestBatchDisabledFallsThrough pins the default: without Batch.Enabled the
// batching front never handles a request and no batch state is touched.
func TestBatchDisabledFallsThrough(t *testing.T) {
	eng, _, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 2})
	want, _ := soloPairs(t, eng, p, rcj.Query{MaxDiameter: 400})
	var st rcj.Stats
	seq, err := s.Run(context.Background(), p, p, rcj.Query{MaxDiameter: 400}, &st)
	if err != nil {
		t.Fatal(err)
	}
	var got []rcj.Pair
	for pr, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pr)
	}
	assertExactPairs(t, "solo", got, want)
	if snap := s.Snapshot(); snap.SharedBatches != 0 || snap.BatchedRequests != 0 {
		t.Fatalf("batch counters moved while disabled: %+v", snap)
	}
}

// TestPlanOutSurvivesRun pins "a request is planned once": the decision
// PlanOut holds when the scheduler has resolved the query — at Run's return
// for a solo request, while queued for a batched member — is the planner's
// (its rule, a positive estimate), and draining the stream leaves it as it
// was. The executor used to resolve the already-resolved query again and
// overwrite it with a rule "fixed" echo without an estimate.
func TestPlanOutSurvivesRun(t *testing.T) {
	eng, q, p := newTestEngine(t)
	planned := func(label string, dec rcj.PlanDecision) {
		t.Helper()
		if dec.Rule == "" || dec.Rule == "fixed" || dec.EstAccesses <= 0 {
			t.Fatalf("%s: PlanOut = %v, want the planner's decision", label, dec)
		}
	}

	s := New(eng, Config{MaxConcurrent: 1})
	var solo rcj.PlanDecision
	seq, err := s.Run(context.Background(), q, p, rcj.Query{PlanOut: &solo}, nil)
	if err != nil {
		t.Fatal(err)
	}
	atAdmission := solo
	planned("solo, at admission", atAdmission)
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(solo, atAdmission) {
		t.Errorf("solo: PlanOut after the stream = %v, at admission %v", solo, atAdmission)
	}

	s = New(eng, Config{MaxConcurrent: 1, MaxQueue: 8, Batch: BatchConfig{Enabled: true}})
	release := blockSlot(t, s)
	var decs [2]rcj.PlanDecision
	var results [2]memberResult
	var dones [2]chan struct{}
	for i := range decs {
		dones[i] = make(chan struct{})
		go runMember(context.Background(), s, p, rcj.Query{MaxDiameter: 400, PlanOut: &decs[i]}, &results[i], dones[i])
	}
	// Joining the batch takes the scheduler's lock after the resolve, so the
	// decisions are readable here.
	waitFor(t, func() bool { return openBatchMembers(s) == 2 })
	queued := decs
	release()
	for i, done := range dones {
		<-done
		if results[i].err != nil || len(results[i].pairs) == 0 {
			t.Fatalf("member %d: %d pairs, err %v", i, len(results[i].pairs), results[i].err)
		}
		planned("batched member, queued", queued[i])
		if !reflect.DeepEqual(decs[i], queued[i]) {
			t.Errorf("member %d: PlanOut after the stream = %v, while queued %v", i, decs[i], queued[i])
		}
	}
	if snap := s.Snapshot(); snap.SharedBatches != 1 {
		t.Fatalf("the two members ran %d shared batches, want 1", snap.SharedBatches)
	}
}
