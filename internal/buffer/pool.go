// Package buffer implements the LRU buffer manager that sits between the
// R-trees and the pager. The paper's experiments employ "a small memory
// buffer ... to exploit the locality of data accesses and reduce the number
// of page faults", sized as a percentage of the sum of both tree sizes
// (default 1%), and charge 10 ms per fault. This pool reproduces that model:
// every node access goes through Get, hits are free, misses are page faults.
//
// One pool may be shared by several trees (as in the paper, where both join
// inputs compete for the same buffer); cache keys carry an owner id to keep
// their page spaces apart.
//
// A Pool is divided into independently-locked LRU shards so that concurrent
// joins sharing one pool do not contend on a single mutex. NewPool builds a
// single-shard pool whose replacement behavior is exactly the paper's global
// LRU (and deterministic, which the experiment harness relies on);
// NewShardedPool spreads the capacity over several shards for concurrent
// serving, approximating global LRU per hash partition while keeping the
// aggregate Stats exact via per-shard counters.
package buffer

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Key identifies a cached node: the owning tree and its page id.
type Key struct {
	Owner uint32
	Page  storage.PageID
}

// Stats are cumulative access counters for a pool. Accesses counts every
// logical node access (the paper's CPU-cost proxy); Misses counts page
// faults (the paper's I/O-cost driver); Evictions counts LRU replacements.
// PrefetchHits counts hits on entries a Prefetcher loaded ahead of demand
// and that had not been demanded before — each one is a page fault the
// readahead hid from the requester.
// SharedLoads counts misses that piggybacked on a load another goroutine
// already had in flight for the same key instead of calling load themselves
// (the single-flight dedupe); each one is still counted as a miss, so the
// hit/miss classification — and per-tag attribution — is unchanged.
// LoadNanos accumulates the real time requests spent blocked on miss loads
// (leaders in the pager, waiters on the leader's flight), in nanoseconds.
// It is a sum over requests, like CPU-seconds: concurrent faults each add
// their own wait, so the total may exceed wall time.
type Stats struct {
	Accesses     int64
	Hits         int64
	Misses       int64
	Evictions    int64
	PrefetchHits int64
	SharedLoads  int64
	LoadNanos    int64
}

// Faults returns the number of page faults (cache misses).
func (s Stats) Faults() int64 { return s.Misses }

// HitRatio returns the fraction of accesses served from the buffer.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.PrefetchHits += o.PrefetchHits
	s.SharedLoads += o.SharedLoads
	s.LoadNanos += o.LoadNanos
}

// TagStats attributes buffer accesses to one logical request (typically one
// join) running over a shared pool. Every access made through GetTaggedFirst with
// a given tag is mirrored into that tag's counters with atomic adds, so a
// request's hit/miss accounting is exact even while any number of other
// requests — tagged or not — hammer the same shards concurrently. This is
// what makes per-request buffer hit rates reportable from a serving daemon:
// shard counters aggregate the whole pool; tags carve out one request's
// share without approximation.
//
// The zero value is ready to use. A TagStats must not be reused across
// requests whose counts should stay separate.
type TagStats struct {
	accesses  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	loadNanos atomic.Int64
}

// Stats returns a snapshot of the tag's counters. Evictions are a pool-wide
// phenomenon and are not attributable to one request; the field is always 0.
func (t *TagStats) Stats() Stats {
	return Stats{
		Accesses:  t.accesses.Load(),
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		LoadNanos: t.loadNanos.Load(),
	}
}

type entry struct {
	key        Key
	value      any
	prefetched bool // loaded by a Prefetcher and not yet demanded
}

// loadFlight is one in-flight miss load: the leader fills v/err and closes
// done; concurrent misses of the same key wait on done and share the
// outcome instead of re-running load.
type loadFlight struct {
	done chan struct{}
	v    any
	err  error
}

// shard is one independently-locked LRU partition of a Pool.
type shard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	inflight map[Key]*loadFlight
	stats    Stats
	_        [64]byte // keep neighboring shards' hot fields off one cache line
}

// Pool is an LRU cache of deserialized R-tree nodes keyed by (owner, page),
// partitioned into hash shards. A capacity of zero disables caching entirely
// (every access faults); a negative capacity means unbounded. Pool is safe
// for concurrent use.
type Pool struct {
	shards []shard
	mask   uint32
}

// NewPool returns a single-shard pool that holds at most capacity nodes,
// with exact global-LRU replacement.
func NewPool(capacity int) *Pool {
	return NewShardedPool(capacity, 1)
}

// NewShardedPool returns a pool whose capacity is spread over the given
// number of independently-locked LRU shards (rounded up to a power of two;
// values < 1 select DefaultShards). More shards reduce lock contention for
// concurrent workloads at the cost of per-partition rather than global LRU
// replacement. A bounded capacity caps the shard count: every shard must
// hold at least one node, because a zero-capacity shard would disable
// caching for its whole hash partition.
func NewShardedPool(capacity, shards int) *Pool {
	if shards < 1 {
		shards = DefaultShards()
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if capacity >= 0 {
		for n > 1 && n > capacity {
			n >>= 1
		}
	}
	p := &Pool{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range p.shards {
		s := &p.shards[i]
		s.capacity = shardCapacity(capacity, i, n)
		s.ll = list.New()
		s.items = make(map[Key]*list.Element)
		s.inflight = make(map[Key]*loadFlight)
	}
	return p
}

// DefaultShards is the shard count NewShardedPool uses when asked for an
// automatic choice: the smallest power of two covering the usable CPUs,
// capped at 64.
func DefaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

// shardCapacity splits a total capacity over n shards: shard i receives an
// equal share with the remainder going to the lowest-indexed shards.
// Unbounded (< 0) and disabled (0) totals apply to every shard.
func shardCapacity(total, i, n int) int {
	if total < 0 {
		return -1
	}
	c := total / n
	if i < total%n {
		c++
	}
	return c
}

// Shards returns the number of LRU shards.
func (p *Pool) Shards() int { return len(p.shards) }

// shardFor maps a key to its shard.
func (p *Pool) shardFor(k Key) *shard {
	if p.mask == 0 {
		return &p.shards[0]
	}
	h := uint64(k.Owner)*0x9E3779B97F4A7C15 ^ uint64(k.Page)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &p.shards[uint32(h)&p.mask]
}

// Capacity returns the pool's total node capacity (negative = unbounded).
func (p *Pool) Capacity() int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		c := s.capacity
		s.mu.Unlock()
		if c < 0 {
			return -1
		}
		total += c
	}
	return total
}

// Resize changes the total capacity, evicting LRU entries as needed. The
// shard count is fixed at construction, so resizing a sharded pool below
// its shard count floors every shard at one node (slightly exceeding the
// requested total) rather than disabling caching for whole partitions;
// Capacity reports the effective sum.
func (p *Pool) Resize(capacity int) {
	n := len(p.shards)
	for i := range p.shards {
		s := &p.shards[i]
		c := shardCapacity(capacity, i, n)
		if capacity > 0 && c < 1 {
			c = 1
		}
		s.mu.Lock()
		s.capacity = c
		s.evictOverflow()
		s.mu.Unlock()
	}
}

// Len returns the number of cached nodes.
func (p *Pool) Len() int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total += s.ll.Len()
		s.mu.Unlock()
	}
	return total
}

// Get returns the cached value for k, calling load to fetch and deserialize
// it on a miss. The loaded value is cached (unless the shard's capacity is
// zero) and the access is counted either way.
func (p *Pool) Get(k Key, load func() (any, error)) (any, error) {
	v, _, err := p.GetTaggedFirst(k, nil, load)
	return v, err
}

// GetTaggedFirst is Get with per-request attribution: when tag is non-nil the
// access is counted both in the shard's aggregate stats and in tag, with the
// same hit/miss classification, so summing all tags plus untagged accesses
// reproduces Pool.Stats exactly. It also reports whether this access
// was the page's first demand read since it entered the pool — a miss, or
// the first hit on a prefetched entry. That is the signal readahead uses to
// advance: a traversal landing on a prefetched page has reached a fresh
// frontier even though the pool served it as a hit.
func (p *Pool) GetTaggedFirst(k Key, tag *TagStats, load func() (any, error)) (any, bool, error) {
	s := p.shardFor(k)
	s.mu.Lock()
	s.stats.Accesses++
	if el, ok := s.items[k]; ok {
		s.stats.Hits++
		e := el.Value.(*entry)
		first := e.prefetched
		if first {
			e.prefetched = false
			s.stats.PrefetchHits++
		}
		s.ll.MoveToFront(el)
		v := e.value
		s.mu.Unlock()
		if tag != nil {
			tag.accesses.Add(1)
			tag.hits.Add(1)
		}
		return v, first, nil
	}
	s.stats.Misses++
	// Single-flight: if another miss already has this key's load in flight,
	// wait for its result instead of loading again. The waiter is still a
	// miss — to its request the page faulted — so shard and tag counters are
	// classified exactly as before; SharedLoads records the dedupe.
	lf, waiting := s.inflight[k]
	var f *loadFlight
	if waiting {
		s.stats.SharedLoads++
	} else {
		f = &loadFlight{done: make(chan struct{})}
		s.inflight[k] = f
	}
	s.mu.Unlock()
	if tag != nil {
		tag.accesses.Add(1)
		tag.misses.Add(1)
	}
	if waiting {
		waitStart := time.Now()
		<-lf.done
		wait := time.Since(waitStart).Nanoseconds()
		s.mu.Lock()
		s.stats.LoadNanos += wait
		s.mu.Unlock()
		if tag != nil {
			tag.loadNanos.Add(wait)
		}
		if lf.err != nil {
			return nil, false, lf.err
		}
		return lf.v, true, nil
	}

	// Load outside the lock: loads hit the pager, which has its own locking,
	// and may be slow for file-backed pagers. The wall time spent here is the
	// request's real I/O wait, recorded so cost accounting can separate fetch
	// latency from compute.
	loadStart := time.Now()
	v, err := load()
	loaded := time.Since(loadStart).Nanoseconds()
	if tag != nil {
		tag.loadNanos.Add(loaded)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.inflight, k)
		s.stats.LoadNanos += loaded
		s.mu.Unlock()
		f.err = err
		close(f.done)
		return nil, false, err
	}
	f.v = v

	s.mu.Lock()
	s.stats.LoadNanos += loaded
	delete(s.inflight, k)
	if s.capacity == 0 {
		s.mu.Unlock()
		close(f.done)
		return v, true, nil
	}
	if el, ok := s.items[k]; ok {
		// A racing prefetch cached it meanwhile; prefer the existing value.
		// The page has now been demanded (and counted as a full miss above),
		// so consume the flag without a PrefetchHit — the readahead did not
		// beat this demand.
		e := el.Value.(*entry)
		e.prefetched = false
		s.ll.MoveToFront(el)
		cached := e.value
		s.mu.Unlock()
		close(f.done)
		return cached, true, nil
	}
	el := s.ll.PushFront(&entry{key: k, value: v})
	s.items[k] = el
	s.evictOverflow()
	s.mu.Unlock()
	close(f.done)
	return v, true, nil
}

// Put inserts or refreshes a cached value, used when a node is (re)written so
// readers observe the new version.
func (p *Pool) Put(k Key, v any) {
	s := p.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 {
		return
	}
	if el, ok := s.items[k]; ok {
		el.Value.(*entry).value = v
		s.ll.MoveToFront(el)
		return
	}
	el := s.ll.PushFront(&entry{key: k, value: v})
	s.items[k] = el
	s.evictOverflow()
}

// Contains reports whether k is cached, without touching the LRU order or
// the access counters. It is the cheap pre-check the Prefetcher uses to skip
// pages demand already brought in.
func (p *Pool) Contains(k Key) bool {
	s := p.shardFor(k)
	s.mu.Lock()
	_, ok := s.items[k]
	s.mu.Unlock()
	return ok
}

// PutPrefetched inserts v for k as a prefetched entry, reporting whether
// the insert happened: an already-cached key is left untouched, a
// zero-capacity shard caches nothing, and a full shard rejects the insert
// outright. Speculative pages enter at the LRU *cold end* — readahead must
// never evict a demand-loaded page, whose value is proven, for one that is
// only predicted; the first demand Get promotes the entry to MRU like any
// hit and counts a PrefetchHit.
func (p *Pool) PutPrefetched(k Key, v any) bool {
	s := p.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 || (s.capacity > 0 && s.ll.Len() >= s.capacity) {
		return false
	}
	if _, ok := s.items[k]; ok {
		return false
	}
	s.items[k] = s.ll.PushBack(&entry{key: k, value: v, prefetched: true})
	return true
}

// InvalidateOwner removes every cached node belonging to owner, used when a
// tree is rebuilt or an index detaches from a shared pool.
func (p *Pool) InvalidateOwner(owner uint32) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if e.key.Owner == owner {
				s.ll.Remove(el)
				delete(s.items, e.key)
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// Clear empties the cache without touching the counters.
func (p *Pool) Clear() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.items = make(map[Key]*list.Element)
		s.mu.Unlock()
	}
}

// Stats returns cumulative access counters, summed exactly over the shards.
func (p *Pool) Stats() Stats {
	var total Stats
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total.add(s.stats)
		s.mu.Unlock()
	}
	return total
}

// ResetStats zeroes the counters, typically between the build phase and the
// measured join phase of an experiment.
func (p *Pool) ResetStats() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
}

// evictOverflow drops LRU entries until the shard fits its capacity.
// Caller must hold s.mu.
func (s *shard) evictOverflow() {
	if s.capacity < 0 {
		return
	}
	for s.ll.Len() > s.capacity {
		el := s.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		s.ll.Remove(el)
		delete(s.items, e.key)
		s.stats.Evictions++
	}
}
