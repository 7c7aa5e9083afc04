package buffer

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
)

func load(v int) func() (any, error) {
	return func() (any, error) { return v, nil }
}

func key(owner uint32, page int) Key {
	return Key{Owner: owner, Page: storage.PageID(page)}
}

func TestGetCachesAndCounts(t *testing.T) {
	p := NewPool(2)
	v, err := p.Get(key(1, 1), load(10))
	if err != nil || v.(int) != 10 {
		t.Fatalf("get: %v %v", v, err)
	}
	// Second get must hit and must not call the loader.
	v, err = p.Get(key(1, 1), func() (any, error) {
		t.Fatal("loader called on hit")
		return nil, nil
	})
	if err != nil || v.(int) != 10 {
		t.Fatalf("hit: %v %v", v, err)
	}
	st := p.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got := st.Faults(); got != 1 {
		t.Fatalf("faults %d", got)
	}
	if r := st.HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio %g", r)
	}
}

func TestLRUEviction(t *testing.T) {
	p := NewPool(2)
	p.Get(key(1, 1), load(1))
	p.Get(key(1, 2), load(2))
	p.Get(key(1, 1), load(1)) // 1 is now MRU
	p.Get(key(1, 3), load(3)) // evicts 2
	if p.Len() != 2 {
		t.Fatalf("len %d", p.Len())
	}
	missed := false
	p.Get(key(1, 2), func() (any, error) { missed = true; return 2, nil })
	if !missed {
		t.Fatal("page 2 should have been evicted")
	}
	hit2 := true
	p.Get(key(1, 1), func() (any, error) { hit2 = false; return 1, nil })
	if hit2 {
		// After reloading 2 (cap 2), LRU was {3, 2}; 1 was evicted. This is
		// expected; verify eviction count instead.
		if p.Stats().Evictions < 2 {
			t.Fatalf("evictions %d", p.Stats().Evictions)
		}
	}
}

func TestZeroCapacityNeverCaches(t *testing.T) {
	p := NewPool(0)
	for i := 0; i < 5; i++ {
		p.Get(key(1, 1), load(9))
	}
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 5 {
		t.Fatalf("zero-cap stats %+v", st)
	}
	if p.Len() != 0 {
		t.Fatalf("zero-cap pool holds %d", p.Len())
	}
}

func TestUnboundedCapacity(t *testing.T) {
	p := NewPool(-1)
	for i := 0; i < 1000; i++ {
		p.Get(key(1, i), load(i))
	}
	if p.Len() != 1000 {
		t.Fatalf("len %d", p.Len())
	}
	if p.Stats().Evictions != 0 {
		t.Fatal("unbounded pool evicted")
	}
}

func TestResizeShrinks(t *testing.T) {
	p := NewPool(-1)
	for i := 0; i < 10; i++ {
		p.Get(key(1, i), load(i))
	}
	p.Resize(3)
	if p.Len() != 3 {
		t.Fatalf("after resize len %d", p.Len())
	}
	if p.Capacity() != 3 {
		t.Fatalf("capacity %d", p.Capacity())
	}
}

func TestOwnersAreDistinct(t *testing.T) {
	p := NewPool(10)
	p.Get(key(1, 5), load(100))
	missed := false
	p.Get(key(2, 5), func() (any, error) { missed = true; return 200, nil })
	if !missed {
		t.Fatal("same page id under different owner collided")
	}
	p.InvalidateOwner(1)
	missed = false
	p.Get(key(1, 5), func() (any, error) { missed = true; return 100, nil })
	if !missed {
		t.Fatal("InvalidateOwner(1) left owner 1 pages cached")
	}
	hit := true
	p.Get(key(2, 5), func() (any, error) { hit = false; return 200, nil })
	if !hit {
		t.Fatal("InvalidateOwner(1) dropped owner 2 pages")
	}
}

func TestPutAndInvalidate(t *testing.T) {
	p := NewPool(4)
	p.Put(key(1, 1), "v1")
	v, _ := p.Get(key(1, 1), func() (any, error) {
		t.Fatal("loader called after Put")
		return nil, nil
	})
	if v.(string) != "v1" {
		t.Fatalf("got %v", v)
	}
	p.Put(key(1, 1), "v2")
	v, _ = p.Get(key(1, 1), load(0))
	if v.(string) != "v2" {
		t.Fatalf("Put did not refresh: %v", v)
	}
	p.InvalidateOwner(1)
	missed := false
	p.Get(key(1, 1), func() (any, error) { missed = true; return "v3", nil })
	if !missed {
		t.Fatal("InvalidateOwner left the entry")
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	p := NewPool(4)
	wantErr := errors.New("io boom")
	if _, err := p.Get(key(1, 1), func() (any, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("got %v", err)
	}
	if p.Len() != 0 {
		t.Fatal("error result cached")
	}
	// Next access retries the loader.
	v, err := p.Get(key(1, 1), load(7))
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry: %v %v", v, err)
	}
}

func TestResetStatsAndClear(t *testing.T) {
	p := NewPool(4)
	p.Get(key(1, 1), load(1))
	p.Clear()
	if p.Len() != 0 {
		t.Fatal("clear failed")
	}
	if p.Stats().Accesses == 0 {
		t.Fatal("clear must not reset stats")
	}
	p.ResetStats()
	if s := p.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Fatalf("reset stats %+v", s)
	}
}

// TestLRUIsStackAlgorithm checks the inclusion property that makes the
// Figure 15 monotonicity hold: for the same access trace, the fault count
// never increases with capacity.
func TestLRUIsStackAlgorithm(t *testing.T) {
	trace := make([]int, 0, 4000)
	// A looping scan with locality, the tree-traversal pattern.
	for i := 0; i < 400; i++ {
		base := (i * 7) % 50
		for j := 0; j < 10; j++ {
			trace = append(trace, base+j%5)
		}
	}
	var prevFaults int64 = 1 << 62
	for _, capacity := range []int{1, 2, 4, 8, 16, 32, 64} {
		p := NewPool(capacity)
		for _, pg := range trace {
			p.Get(key(1, pg), load(pg))
		}
		faults := p.Stats().Misses
		if faults > prevFaults {
			t.Fatalf("capacity %d has %d faults, more than smaller capacity's %d", capacity, faults, prevFaults)
		}
		prevFaults = faults
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := NewPool(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(uint32(g%2), (g*11+i)%40)
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
			}
		}(g)
	}
	wg.Wait()
}
