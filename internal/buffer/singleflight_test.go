package buffer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSingleFlight pins the miss dedupe: N concurrent Gets of one
// absent key run load exactly once, every caller gets the value, and the
// stats classify every caller as a miss (so per-tag attribution is
// untouched) with N-1 SharedLoads.
func TestPoolSingleFlight(t *testing.T) {
	p := NewPool(8)
	var loads atomic.Int64
	gate := make(chan struct{})
	load := func() (any, error) {
		loads.Add(1)
		<-gate
		return "v", nil
	}

	const readers = 8
	var tag TagStats
	var wg sync.WaitGroup
	vals := make([]any, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = p.GetTaggedFirst(Key{Owner: 1, Page: 7}, &tag, load)
		}(i)
	}
	// Wait until every non-leader is accounted a SharedLoad (they announce
	// before blocking on the flight), then release the leader's load.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().SharedLoads < readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: SharedLoads=%d", p.Stats().SharedLoads)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if vals[i] != "v" {
			t.Fatalf("reader %d got %v", i, vals[i])
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1", n)
	}
	st := p.Stats()
	if st.Accesses != readers || st.Hits != 0 || st.Misses != readers {
		t.Fatalf("pool stats %+v, want %d accesses, 0 hits, %d misses", st, readers, readers)
	}
	if st.SharedLoads != readers-1 {
		t.Fatalf("SharedLoads = %d, want %d", st.SharedLoads, readers-1)
	}
	// The tag mirrors the same classification exactly.
	ts := tag.Stats()
	if ts.Accesses != readers || ts.Misses != readers || ts.Hits != 0 {
		t.Fatalf("tag stats %+v", ts)
	}
	// The flight is gone and the value cached: the next Get is a hit.
	if _, err := p.Get(Key{Owner: 1, Page: 7}, func() (any, error) {
		t.Fatal("load ran on a cached key")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("follow-up hit not counted: %+v", st)
	}
}

// TestPoolSingleFlightError pins error propagation: waiters see the
// leader's error, nothing is cached, and the next Get retries the load.
func TestPoolSingleFlightError(t *testing.T) {
	p := NewPool(8)
	boom := errors.New("boom")
	gate := make(chan struct{})
	load := func() (any, error) {
		<-gate
		return nil, boom
	}
	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Get(Key{Page: 3}, load)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().SharedLoads < readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: SharedLoads=%d", p.Stats().SharedLoads)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("reader %d error = %v, want boom", i, err)
		}
	}
	if p.Contains(Key{Page: 3}) {
		t.Fatal("failed load left a cached entry")
	}
	// A failed flight must not wedge the key.
	v, err := p.Get(Key{Page: 3}, func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry after failed flight = %v, %v", v, err)
	}
}

// TestPoolSingleFlightZeroCapacity pins that dedupe works even when the
// pool caches nothing: waiters share the leader's load, nothing is stored.
func TestPoolSingleFlightZeroCapacity(t *testing.T) {
	p := NewPool(0)
	var loads atomic.Int64
	gate := make(chan struct{})
	const readers = 4
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Get(Key{Page: 1}, func() (any, error) {
				loads.Add(1)
				<-gate
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("get = %v, %v", v, err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().SharedLoads < readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: SharedLoads=%d", p.Stats().SharedLoads)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1", n)
	}
	if p.Len() != 0 {
		t.Fatal("zero-capacity pool cached an entry")
	}
}

// TestOfferBatch pins the coalesced readahead job: one offer, one batch
// load, per-page inserts with prefetched (cold-end) semantics.
func TestOfferBatch(t *testing.T) {
	p := NewPool(16)
	pf := NewPrefetcher(p, 1, 8)
	defer pf.Close()

	keys := []Key{{Page: 1}, {Page: 2}, {Page: 3}}
	var batchLoads atomic.Int64
	ok := pf.OfferBatch(keys, func() ([]any, error) {
		batchLoads.Add(1)
		return []any{"a", "b", "c"}, nil
	})
	if !ok {
		t.Fatal("batch offer rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for pf.Stats().Loaded < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %+v", pf.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if n := batchLoads.Load(); n != 1 {
		t.Fatalf("batch load ran %d times, want 1", n)
	}
	for i, k := range keys {
		if !p.Contains(k) {
			t.Fatalf("page %d not cached", i)
		}
	}
	st := pf.Stats()
	if st.Offered != 1 || st.Loaded != 3 {
		t.Fatalf("prefetch stats %+v, want 1 offer / 3 loaded", st)
	}
	// The first demand Get on a batch-prefetched page is a PrefetchHit.
	if _, err := p.Get(keys[0], func() (any, error) { return nil, errors.New("not prefetched") }); err != nil {
		t.Fatal(err)
	}
	if ps := p.Stats(); ps.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d, want 1", ps.PrefetchHits)
	}

	// A fully-cached run is skipped without a load.
	if pf.OfferBatch(keys, func() ([]any, error) {
		t.Error("load ran for a fully-cached run")
		return nil, nil
	}) {
		t.Fatal("fully-cached batch offer accepted")
	}

	// A batch whose load fails counts one failure and caches nothing.
	bad := []Key{{Page: 8}, {Page: 9}}
	if !pf.OfferBatch(bad, func() ([]any, error) { return nil, errors.New("origin died") }) {
		t.Fatal("batch offer rejected")
	}
	deadline = time.Now().Add(5 * time.Second)
	for pf.Stats().Failed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %+v", pf.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if p.Contains(bad[0]) || p.Contains(bad[1]) {
		t.Fatal("failed batch cached pages")
	}
}
