package buffer

import (
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestGetTaggedMirrorsShardCounts checks that a tag sees exactly the
// accesses made with it, with the same hit/miss classification the pool
// records.
func TestGetTaggedMirrorsShardCounts(t *testing.T) {
	p := NewPool(2)
	var tag TagStats
	load := func() (any, error) { return "v", nil }

	k1 := Key{Owner: 1, Page: storage.PageID(1)}
	k2 := Key{Owner: 1, Page: storage.PageID(2)}
	if _, _, err := p.GetTaggedFirst(k1, &tag, load); err != nil { // miss
		t.Fatal(err)
	}
	if _, _, err := p.GetTaggedFirst(k1, &tag, load); err != nil { // hit
		t.Fatal(err)
	}
	if _, _, err := p.GetTaggedFirst(k2, nil, load); err != nil { // untagged miss
		t.Fatal(err)
	}

	got := tag.Stats()
	got.LoadNanos = 0 // wall-clock dependent; classification is what's under test
	want := Stats{Accesses: 2, Hits: 1, Misses: 1}
	if got != want {
		t.Fatalf("tag stats = %+v, want %+v", got, want)
	}
	pool := p.Stats()
	if pool.Accesses != 3 || pool.Misses != 2 {
		t.Fatalf("pool stats = %+v, want 3 accesses / 2 misses", pool)
	}
}

// TestGetTaggedExactUnderConcurrency runs several goroutines with private
// tags over one pool and checks that (a) each tag counts exactly its own
// goroutine's accesses and (b) the tags sum to the pool's aggregate — the
// property that makes per-request attribution on a shared serving pool
// exact rather than a delta-based approximation.
func TestGetTaggedExactUnderConcurrency(t *testing.T) {
	const (
		workers  = 8
		accesses = 2000
		pages    = 64
	)
	p := NewShardedPool(16, 4)
	load := func() (any, error) { return "v", nil }

	tags := make([]*TagStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tags[w] = new(TagStats)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < accesses; i++ {
				k := Key{Owner: uint32(w % 2), Page: storage.PageID((i * (w + 3)) % pages)}
				if _, _, err := p.GetTaggedFirst(k, tags[w], load); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var sum Stats
	for w, tag := range tags {
		ts := tag.Stats()
		if ts.Accesses != accesses {
			t.Errorf("tag %d: %d accesses, want %d", w, ts.Accesses, accesses)
		}
		if ts.Hits+ts.Misses != ts.Accesses {
			t.Errorf("tag %d: hits %d + misses %d != accesses %d", w, ts.Hits, ts.Misses, ts.Accesses)
		}
		sum.add(ts)
	}
	pool := p.Stats()
	if sum.Accesses != pool.Accesses || sum.Hits != pool.Hits || sum.Misses != pool.Misses {
		t.Fatalf("tag sum %+v != pool aggregate %+v", sum, pool)
	}
}
