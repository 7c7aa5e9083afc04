package rcj

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func testPoints(rng *rand.Rand, n int, idBase int64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: idBase + int64(i)}
	}
	return pts
}

func sortedPairs(pairs []Pair) []Pair {
	out := append([]Pair(nil), pairs...)
	SortPairsByDiameter(out)
	return out
}

func samePairs(t *testing.T, label string, want, got []Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	w, g := sortedPairs(want), sortedPairs(got)
	for i := range w {
		if w[i].P.ID != g[i].P.ID || w[i].Q.ID != g[i].Q.ID {
			t.Fatalf("%s: pair %d is <%d,%d>, want <%d,%d>",
				label, i, g[i].P.ID, g[i].Q.ID, w[i].P.ID, w[i].Q.ID)
		}
	}
}

// TestEngineConcurrentJoins runs many simultaneous joins on one shared
// sharded pool and checks every result set against the sequential run. Run
// under -race this is the acceptance test for the shared Engine.
func TestEngineConcurrentJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	eng := NewEngine(EngineConfig{BufferPages: 256})
	ixP, err := eng.BuildIndex(testPoints(rng, 600, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ixQ, err := eng.BuildIndex(testPoints(rng, 500, 0), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	defer ixQ.Close()

	want, _, err := testEng.RunCollect(bg, mustIndex(t, pointsOf(t, ixQ), IndexConfig{}), mustIndex(t, pointsOf(t, ixP), IndexConfig{}), Query{})
	if err != nil {
		t.Fatal(err)
	}

	const joins = 12
	var wg sync.WaitGroup
	results := make([][]Pair, joins)
	errs := make([]error, joins)
	for i := 0; i < joins; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Query{}
			if i%3 == 1 {
				opts.Parallelism = 4 // mix parallel joins into the load
			}
			if i%2 == 0 {
				results[i], _, errs[i] = eng.RunCollect(context.Background(), ixQ, ixP, opts)
			} else {
				results[i], errs[i] = Collect(eng.Run(context.Background(), ixQ, ixP, opts))
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < joins; i++ {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
		samePairs(t, fmt.Sprintf("join %d", i), want, results[i])
	}
}

// pointsOf extracts an index's points so a fresh standalone index (private
// pool, no engine) can compute the independent sequential baseline.
func pointsOf(t *testing.T, ix *Index) []Point {
	t.Helper()
	pts, err := ix.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// parQuery is the unconstrained join on par workers: planned when par is 0
// or 1, and forced onto OBJ above, since the planned join runs on the
// sequential Gabriel path.
func parQuery(par int) Query {
	if par > 1 {
		return Query{Algorithm: OBJ, Parallelism: par}
	}
	return Query{Parallelism: par}
}

// TestEngineStreamMatchesCollect checks the acceptance criterion that the
// streaming iterator yields exactly the pairs Collect returns.
func TestEngineStreamMatchesCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	eng := NewEngine(EngineConfig{})
	ixP, _ := eng.BuildIndex(testPoints(rng, 400, 0), IndexConfig{})
	ixQ, _ := eng.BuildIndex(testPoints(rng, 400, 0), IndexConfig{})
	defer ixP.Close()
	defer ixQ.Close()

	for _, par := range []int{0, 4} {
		opts := parQuery(par)
		collected, _, err := eng.RunCollect(context.Background(), ixQ, ixP, opts)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := Collect(eng.Run(context.Background(), ixQ, ixP, opts))
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("par=%d", par), collected, streamed)
	}
}

func TestEngineSelfJoinStream(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	eng := NewEngine(EngineConfig{})
	ix, _ := eng.BuildIndex(testPoints(rng, 300, 0), IndexConfig{})
	defer ix.Close()

	collected, _, err := eng.RunCollect(context.Background(), ix, ix, Query{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Collect(eng.Run(context.Background(), ix, ix, Query{}))
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "self", collected, streamed)
	for _, pr := range streamed {
		if pr.P.ID >= pr.Q.ID {
			t.Fatalf("non-canonical self pair <%d,%d>", pr.P.ID, pr.Q.ID)
		}
	}
}

// waitForGoroutines polls until the goroutine count returns to the baseline
// (runtime bookkeeping makes an immediate check flaky).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestEngineCancellation checks that a cancelled context aborts a streaming
// join promptly — no pair is yielded once the context is done, sequential
// (the planned join, on the Gabriel path) or parallel (OBJ on four
// workers) — surfaces the context error, and leaks no goroutines.
func TestEngineCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	eng := NewEngine(EngineConfig{})
	ixP, _ := eng.BuildIndex(testPoints(rng, 1500, 0), IndexConfig{})
	ixQ, _ := eng.BuildIndex(testPoints(rng, 1500, 0), IndexConfig{})
	defer ixP.Close()
	defer ixQ.Close()

	total, _, err := eng.RunCollect(context.Background(), ixQ, ixP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(total) < 20 {
		t.Skipf("dataset yields only %d pairs", len(total))
	}

	for _, par := range []int{0, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var got int
			var sawErr error
			qry := parQuery(par)
			var dec PlanDecision
			qry.PlanOut = &dec
			for pr, err := range eng.Run(ctx, ixQ, ixP, qry) {
				if err != nil {
					sawErr = err
					break
				}
				_ = pr
				got++
				if got == 5 {
					cancel()
				}
			}
			cancel()
			if !errors.Is(sawErr, context.Canceled) {
				t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
			}
			if got != 5 {
				t.Fatalf("%d pairs yielded after the context was cancelled", got-5)
			}
			if (dec.Algorithm == core.AlgGabriel) != (par == 0) {
				t.Fatalf("planned %v: the sequential leg is the Gabriel path's", dec)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestEngineEarlyBreak abandons the iterator mid-stream (the k-results use
// case) and checks a parallel run's workers are reaped.
func TestEngineEarlyBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	eng := NewEngine(EngineConfig{})
	ixP, _ := eng.BuildIndex(testPoints(rng, 1200, 0), IndexConfig{})
	ixQ, _ := eng.BuildIndex(testPoints(rng, 1200, 0), IndexConfig{})
	defer ixP.Close()
	defer ixQ.Close()

	for _, par := range []int{0, 4} {
		base := runtime.NumGoroutine()
		got := 0
		for pr, err := range eng.Run(context.Background(), ixQ, ixP, parQuery(par)) {
			if err != nil {
				t.Fatal(err)
			}
			_ = pr
			got++
			if got == 3 {
				break
			}
		}
		if got != 3 {
			t.Fatalf("broke after %d pairs, want 3", got)
		}
		waitForGoroutines(t, base)
	}
}

// TestEnginePanicPropagates checks that a panic in the consumer's loop body
// leaves the range statement as that panic, sequential or parallel, and
// that a parallel run's workers are stopped and joined on the way out.
func TestEnginePanicPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	eng := NewEngine(EngineConfig{})
	ixP, _ := eng.BuildIndex(testPoints(rng, 1200, 0), IndexConfig{})
	ixQ, _ := eng.BuildIndex(testPoints(rng, 1200, 0), IndexConfig{})
	defer ixP.Close()
	defer ixQ.Close()

	type bodyPanic struct{}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			got := 0
			func() {
				defer func() {
					if r := recover(); r != (bodyPanic{}) {
						t.Errorf("recovered %v, want the loop body's panic", r)
					}
				}()
				for _, err := range eng.Run(bg, ixQ, ixP, parQuery(par)) {
					if err != nil {
						t.Errorf("iterator error %v", err)
						return
					}
					if got++; got == 3 {
						panic(bodyPanic{})
					}
				}
			}()
			if got != 3 {
				t.Fatalf("panicked after %d pairs, want 3", got)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestEngineSequentialInline checks that a sequential Engine.Run runs on the
// goroutine ranging over it: no goroutine is running beside the loop body.
func TestEngineSequentialInline(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	eng := NewEngine(EngineConfig{})
	ixP, _ := eng.BuildIndex(testPoints(rng, 800, 0), IndexConfig{})
	ixQ, _ := eng.BuildIndex(testPoints(rng, 800, 0), IndexConfig{})
	defer ixP.Close()
	defer ixQ.Close()

	base := runtime.NumGoroutine()
	got := 0
	for _, err := range eng.Run(bg, ixQ, ixP, Query{Parallelism: 1}) {
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("pair %d: %d goroutines running, baseline %d", got, n, base)
		}
		got++
	}
	if got == 0 {
		t.Fatal("the join yields no pair")
	}
}

func TestEnginePreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	eng := NewEngine(EngineConfig{})
	ix, _ := eng.BuildIndex(testPoints(rng, 100, 0), IndexConfig{})
	defer ix.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs, err := Collect(eng.Run(ctx, ix, ix, Query{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pairs) != 0 {
		t.Fatalf("pre-cancelled join yielded %d pairs", len(pairs))
	}
}

// TestEngineOwnersIsolated checks that two engine indexes never collide in
// the shared pool even when their page ids overlap.
func TestEngineOwnersIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	eng := NewEngine(EngineConfig{BufferPages: 64})
	a, _ := eng.BuildIndex(testPoints(rng, 200, 0), IndexConfig{})
	b, _ := eng.BuildIndex(testPoints(rng, 200, 1000), IndexConfig{})
	defer a.Close()
	defer b.Close()
	if a.owner == b.owner {
		t.Fatalf("indexes share owner id %d", a.owner)
	}
	got, _, err := eng.RunCollect(context.Background(), a, b, Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantA := mustIndex(t, pointsOf(t, a), IndexConfig{})
	wantB := mustIndex(t, pointsOf(t, b), IndexConfig{})
	want, _, err := testEng.RunCollect(bg, wantA, wantB, Query{})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "owners", want, got)
}
