package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rcj"
)

// grid builds a deterministic pointset for join tests.
func grid(n int, offset float64) []rcj.Point {
	pts := make([]rcj.Point, n)
	for i := range pts {
		pts[i] = rcj.Point{
			X:  float64(i%37)*27.1 + offset,
			Y:  float64(i%53)*19.7 + offset/2,
			ID: int64(i),
		}
	}
	return pts
}

func newTestEngine(t *testing.T) (*rcj.Engine, *rcj.Index, *rcj.Index) {
	t.Helper()
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 256})
	p, err := eng.BuildIndex(grid(400, 0), rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.BuildIndex(grid(400, 5000), rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close(); q.Close() })
	return eng, q, p
}

func TestAcquireImmediate(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 2})
	r1, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot(); got.InFlight != 2 || got.Admitted != 2 {
		t.Fatalf("snapshot = %+v, want 2 in flight / 2 admitted", got)
	}
	r1()
	r1() // idempotent
	r2()
	if got := s.Snapshot(); got.InFlight != 0 {
		t.Fatalf("in flight = %d after release, want 0", got.InFlight)
	}
}

func TestOverloadRejection(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 1})

	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue.
	type res struct {
		release func()
		err     error
	}
	queued := make(chan res, 1)
	go func() {
		r, err := s.Acquire(context.Background())
		queued <- res{r, err}
	}()
	waitFor(t, func() bool { return s.Snapshot().Queued == 1 })

	// Queue full: immediate typed rejection.
	if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := s.Snapshot().RejectedOverload; got != 1 {
		t.Fatalf("rejected_overload = %d, want 1", got)
	}

	// Releasing the slot admits the queued waiter (slot freed, not leaked).
	release()
	r := <-queued
	if r.err != nil {
		t.Fatalf("queued acquire failed: %v", r.err)
	}
	r.release()
	if got := s.Snapshot().InFlight; got != 0 {
		t.Fatalf("in flight = %d, want 0", got)
	}
}

func TestQueueTimeout(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if got := s.Snapshot().RejectedQueueTimeout; got != 1 {
		t.Fatalf("rejected_queue_timeout = %d, want 1", got)
	}
	release()
	quiesce(t, s)
}

func TestAcquireContextCancel(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 4})
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx)
		done <- err
	}()
	waitFor(t, func() bool { return s.Snapshot().Queued == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	release()
	quiesce(t, s)
}

// TestFIFOOrder checks strict FIFO admission: waiters are granted slots in
// arrival order.
func TestFIFOOrder(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 8})
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 5
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			r()
		}(i)
		// Serialize enqueue order so arrival order is well-defined.
		waitFor(t, func() bool { return s.Snapshot().Queued == i+1 })
	}
	release()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("FIFO violated: got waiter %d at position %d", got, want)
		}
		want++
	}
}

func TestDrain(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 2})

	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One queued request, admitted before the drain begins.
	queuedDone := make(chan error, 1)
	go func() {
		r, err := s.Acquire(context.Background())
		if err == nil {
			r()
		}
		queuedDone <- err
	}()
	waitFor(t, func() bool { return s.Snapshot().Queued == 1 })

	s.BeginDrain()
	// New work is rejected with the typed error.
	if _, err := s.Acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}

	// Drain must not complete while admitted work is still in flight.
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	select {
	case <-drainDone:
		t.Fatal("drain completed with a slot still held")
	case <-time.After(30 * time.Millisecond):
	}

	release()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued (pre-drain) request should have run: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Draining an already-drained scheduler returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
}

func TestDrainContextExpiry(t *testing.T) {
	eng, _, _ := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1})
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestJoinMatchesEngine checks a scheduled streaming join returns exactly
// Engine.RunCollect's result set and reports exact per-request stats.
func TestJoinMatchesEngine(t *testing.T) {
	eng, q, p := newTestEngine(t)
	want, wantStats, err := eng.RunCollect(context.Background(), q, p, rcj.Query{})
	if err != nil {
		t.Fatal(err)
	}

	s := New(eng, Config{MaxConcurrent: 2, MaxQueue: 2})
	var st rcj.Stats
	seq, err := s.Run(context.Background(), q, p, rcj.Query{}, &st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rcj.Collect(seq)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePairs(t, got, want)
	if st.Results != wantStats.Results || st.Candidates != wantStats.Candidates {
		t.Fatalf("stats = %+v, want results/candidates of %+v", st, wantStats)
	}
	if st.NodeAccesses == 0 || st.PageFaults < 0 {
		t.Fatalf("tagged stats not populated: %+v", st)
	}
	snap := s.Snapshot()
	if snap.PairsEmitted != int64(len(got)) || snap.Completed != 1 {
		t.Fatalf("snapshot = %+v, want %d pairs / 1 completed", snap, len(got))
	}
	if snap.BufferAccesses != st.NodeAccesses {
		t.Fatalf("aggregated buffer accesses %d != join's %d", snap.BufferAccesses, st.NodeAccesses)
	}
}

// TestJoinBreakReleasesSlot checks that a consumer breaking out of the
// stream mid-join frees the slot for the next request.
func TestJoinBreakReleasesSlot(t *testing.T) {
	eng, q, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 0})

	seq, err := s.Run(context.Background(), q, p, rcj.Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range seq {
		break // abandon after the first pair
	}
	// The slot must be free again: an immediate no-queue acquire succeeds.
	release, err := s.Acquire(context.Background())
	if err != nil {
		t.Fatalf("slot not released after break: %v", err)
	}
	release()
	quiesce(t, s)
}

// TestJoinTimeout checks the per-request deadline reaches the executor as a
// context error on the stream.
func TestJoinTimeout(t *testing.T) {
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 256})
	ix, err := eng.BuildIndex(grid(5000, 0), rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	s := New(eng, Config{MaxConcurrent: 1, JoinTimeout: time.Nanosecond})
	seq, err := s.Run(context.Background(), ix, ix, rcj.Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for _, err := range seq {
		if err != nil {
			last = err
		}
	}
	if !errors.Is(last, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", last)
	}
	if got := s.Snapshot().Failed; got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
	quiesce(t, s)
}

// TestConcurrentJoinsExactStats floods a maxConcurrent=2 scheduler with
// joins and checks every one of them reports the correct result set and
// per-request tagged buffer stats that sum to the scheduler's aggregate.
func TestConcurrentJoinsExactStats(t *testing.T) {
	eng, q, p := newTestEngine(t)
	want, _, err := eng.RunCollect(context.Background(), q, p, rcj.Query{})
	if err != nil {
		t.Fatal(err)
	}

	s := New(eng, Config{MaxConcurrent: 2, MaxQueue: 16})
	const clients = 8
	stats := make([]rcj.Stats, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := s.Run(context.Background(), q, p, rcj.Query{}, &stats[i])
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			got, err := rcj.Collect(seq)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("client %d: %d pairs, want %d", i, len(got), len(want))
			}
		}(i)
	}
	wg.Wait()

	var accesses, faults int64
	for i, st := range stats {
		if st.NodeAccesses == 0 {
			t.Errorf("client %d: zero node accesses", i)
		}
		accesses += st.NodeAccesses
		faults += st.PageFaults
	}
	snap := s.Snapshot()
	if snap.BufferAccesses != accesses || snap.BufferMisses != faults {
		t.Fatalf("aggregate %d/%d != per-request sums %d/%d",
			snap.BufferAccesses, snap.BufferMisses, accesses, faults)
	}
	if snap.Completed != clients {
		t.Fatalf("snapshot = %+v, want %d completed", snap, clients)
	}
	quiesce(t, s)
}

// TestPlanOutSurvivesRun pins "a request is planned once": the decision
// PlanOut holds at Run's return is the planner's (its rule, a positive
// estimate), and draining the stream leaves it as it was. The executor used
// to resolve the already-resolved query again and overwrite it with a rule
// "fixed" echo without an estimate.
func TestPlanOutSurvivesRun(t *testing.T) {
	eng, q, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 1})
	var dec rcj.PlanDecision
	seq, err := s.Run(context.Background(), q, p, rcj.Query{PlanOut: &dec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	atAdmission := dec
	if dec.Rule == "" || dec.Rule == "fixed" || dec.EstAccesses <= 0 {
		t.Fatalf("PlanOut at admission = %v, want the planner's decision", dec)
	}
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(dec, atAdmission) {
		t.Errorf("PlanOut after the stream = %v, at admission %v", dec, atAdmission)
	}
}

func assertSamePairs(t *testing.T, got, want []rcj.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	key := func(pr rcj.Pair) string {
		return fmt.Sprintf("%d/%d/%x/%x/%x", pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)
	}
	seen := make(map[string]int, len(want))
	for _, pr := range want {
		seen[key(pr)]++
	}
	for _, pr := range got {
		if seen[key(pr)] == 0 {
			t.Fatalf("unexpected pair %+v", pr)
		}
		seen[key(pr)]--
	}
}

// quiesce waits, with a deadline, until s holds no slot and queues no
// waiter, and no goroutine but the caller's runs this module's code: the
// leak check at the end of a failure-path test. The goroutine baseline is
// zero module goroutines, so the check needs no count taken beforehand.
func quiesce(t *testing.T, s *Scheduler) {
	t.Helper()
	var snap Snapshot
	var leaked []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap = s.Snapshot()
		leaked = moduleGoroutines()
		if snap.InFlight == 0 && snap.Queued == 0 && len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("not quiescent: %d in flight, %d queued, %d goroutines left:\n%s",
		snap.InFlight, snap.Queued, len(leaked), strings.Join(leaked, "\n\n"))
}

// moduleGoroutines returns the stacks of the goroutines, the caller's
// excepted, that have a frame in this module.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	// The first stack is the caller's own.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "repro/") {
			out = append(out, g)
		}
	}
	return out
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
