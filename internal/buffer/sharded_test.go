package buffer

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardedPoolRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ want, shards int }{
		{1, 1}, {2, 2}, {4, 3}, {4, 4}, {8, 5}, {8, 8}, {16, 9},
	} {
		p := NewShardedPool(64, tc.shards)
		if p.Shards() != tc.want {
			t.Errorf("shards=%d: got %d shards, want %d", tc.shards, p.Shards(), tc.want)
		}
	}
	if got := NewShardedPool(64, 0).Shards(); got != DefaultShards() {
		t.Errorf("auto shards: got %d, want %d", got, DefaultShards())
	}
}

func TestShardedCapacitySplit(t *testing.T) {
	p := NewShardedPool(10, 4)
	if got := p.Capacity(); got != 10 {
		t.Fatalf("capacity %d, want 10", got)
	}
	p.Resize(7)
	if got := p.Capacity(); got != 7 {
		t.Fatalf("after resize capacity %d, want 7", got)
	}
	// Unbounded and disabled totals apply per shard.
	if got := NewShardedPool(-1, 4).Capacity(); got != -1 {
		t.Fatalf("unbounded capacity %d, want -1", got)
	}
	// A bounded capacity caps the shard count: no shard may end up with
	// capacity zero (which would disable caching for its partition).
	small := NewShardedPool(4, 16)
	if small.Shards() > 4 {
		t.Fatalf("capacity 4 spread over %d shards", small.Shards())
	}
	if got := small.Capacity(); got != 4 {
		t.Fatalf("clamped capacity %d, want 4", got)
	}
	for i := 0; i < 64; i++ {
		small.Get(key(1, i), load(i))
	}
	if small.Len() != 4 {
		t.Fatalf("clamped pool caches %d nodes, want 4", small.Len())
	}
	// Resizing an already-sharded pool below its shard count floors each
	// shard at one node instead of disabling partitions.
	wide := NewShardedPool(64, 8)
	wide.Resize(3)
	if got := wide.Capacity(); got != 8 {
		t.Fatalf("resize-below-shards capacity %d, want 8 (one per shard)", got)
	}
	for i := 0; i < 64; i++ {
		wide.Get(key(1, i), load(i))
	}
	if wide.Len() == 0 || wide.Len() > 8 {
		t.Fatalf("resized pool caches %d nodes", wide.Len())
	}
	zero := NewShardedPool(0, 4)
	for i := 0; i < 32; i++ {
		zero.Get(key(1, i), load(i))
	}
	if zero.Len() != 0 {
		t.Fatalf("zero-capacity sharded pool cached %d nodes", zero.Len())
	}
}

func TestShardedStatsExact(t *testing.T) {
	p := NewShardedPool(-1, 8)
	const n = 1000
	for i := 0; i < n; i++ {
		p.Get(key(uint32(i%3), i), load(i)) // all misses
	}
	for i := 0; i < n; i++ {
		p.Get(key(uint32(i%3), i), load(i)) // all hits
	}
	st := p.Stats()
	if st.Accesses != 2*n || st.Misses != n || st.Hits != n {
		t.Fatalf("aggregate stats %+v, want %d accesses / %d misses / %d hits", st, 2*n, n, n)
	}
	if p.Len() != n {
		t.Fatalf("len %d, want %d", p.Len(), n)
	}
	p.ResetStats()
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("after reset: %+v", st)
	}
}

func TestShardedInvalidateOwnerAndClear(t *testing.T) {
	p := NewShardedPool(-1, 8)
	for i := 0; i < 200; i++ {
		p.Get(key(1, i), load(i))
		p.Get(key(2, i), load(i))
	}
	p.InvalidateOwner(1)
	if p.Len() != 200 {
		t.Fatalf("after InvalidateOwner len %d, want 200", p.Len())
	}
	hit := true
	p.Get(key(2, 7), func() (any, error) { hit = false; return 7, nil })
	if !hit {
		t.Fatal("InvalidateOwner(1) dropped owner 2 pages")
	}
	p.Clear()
	if p.Len() != 0 {
		t.Fatalf("after Clear len %d", p.Len())
	}
}

func TestShardedEvictionIsPerShard(t *testing.T) {
	p := NewShardedPool(16, 4)
	for i := 0; i < 400; i++ {
		p.Get(key(1, i), load(i))
	}
	if p.Len() > 16 {
		t.Fatalf("len %d exceeds capacity 16", p.Len())
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestShardedConcurrentAccess(t *testing.T) {
	p := NewShardedPool(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(uint32(g%3), (g*13+i)%128)
				v, err := p.Get(k, func() (any, error) {
					return fmt.Sprintf("%d-%d", k.Owner, k.Page), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != fmt.Sprintf("%d-%d", k.Owner, k.Page) {
					t.Errorf("wrong value for %+v: %v", k, v)
					return
				}
				if i%97 == 0 {
					p.InvalidateOwner(k.Owner)
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Accesses != 16*500 {
		t.Fatalf("accesses %d, want %d", st.Accesses, 16*500)
	}
}

func TestShardDistribution(t *testing.T) {
	// The shard hash must not funnel sequential page ids (the common access
	// pattern) into few shards.
	p := NewShardedPool(-1, 8)
	counts := make(map[*shard]int)
	for i := 0; i < 8000; i++ {
		counts[p.shardFor(key(1, i))]++
	}
	if len(counts) != 8 {
		t.Fatalf("sequential keys landed in %d/8 shards", len(counts))
	}
	for s, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("shard %p holds %d/8000 keys — badly skewed", s, c)
		}
	}
}
