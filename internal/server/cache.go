package server

import (
	"container/list"
	"strings"
	"sync"

	"repro/rcj"
)

// resultCache is the server's bounded-result LRU: it memoizes the full
// result sets of joins whose queries bound their own size (TopK or Limit),
// keyed by index generations plus the query's canonical form, so a repeat
// of a popular dashboard query is served from memory without admission
// control, a slot, or a single page access.
//
// Correctness leans on two invariants. Results are stored only by a handler
// that held the indexes' reference counts for the whole stream, so the
// generations in the key were current for every page the traversal read —
// an unload cannot have snuck in. And unloading an index both purges every
// entry naming it AND retires its generation (LoadIndex hands out fresh
// ones), so even a racing store keyed before the unload can never be looked
// up again.
//
// A nil *resultCache is valid and disabled: every method is a cheap no-op,
// so call sites need no guards.
type resultCache struct {
	mu       sync.Mutex
	maxEnt   int        // max entries
	maxPairs int        // max pairs one entry may hold (admission bound, not a sum)
	ll       *list.List // of *cachedResult, front = most recent
	byKey    map[string]*list.Element

	hits          int64
	misses        int64
	stores        int64
	evictions     int64
	invalidations int64
	pairs         int64 // gauge: pairs held across all entries
}

// cachedResult is one memoized result set: the exact pair stream a solo run
// produced, plus the stats its summary line reported and the plan the
// original run resolved to (replayed in the cached summary so plan
// observability survives a cache hit).
type cachedResult struct {
	key   string
	names []string // index names the entry depends on (1 for self-joins, 2 otherwise)
	pairs []rcj.Pair
	stats rcj.Stats
	plan  rcj.PlanDecision
}

// newResultCache returns a cache holding up to maxEntries results of up to
// maxPairs pairs each; maxEntries <= 0 disables caching (nil return).
func newResultCache(maxEntries, maxPairs int) *resultCache {
	if maxEntries <= 0 {
		return nil
	}
	if maxPairs <= 0 {
		maxPairs = DefaultResultCachePairs
	}
	return &resultCache{
		maxEnt:   maxEntries,
		maxPairs: maxPairs,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// cacheKey builds the lookup key: each index name pinned to the generation
// key of its current registration (registration generation, with the live
// epoch sequence folded in for mutable indexes — see indexEntry.genKey), the
// and the query's canonical result-shaping form. For self-joins q repeats p,
// which is the join shape.
func cacheKey(pName, pGen, qName, qGen string, qry rcj.Query) string {
	var b strings.Builder
	b.WriteString(pName)
	b.WriteByte('#')
	b.WriteString(pGen)
	b.WriteByte('|')
	b.WriteString(qName)
	b.WriteByte('#')
	b.WriteString(qGen)
	b.WriteByte('|')
	b.WriteString(qry.Canonical())
	return b.String()
}

// cacheable reports whether a query's result set is bounded tightly enough
// to memoize: TopK and Limit both cap the pair count, but only sequential
// runs are deterministic enough to replay byte-identically (a parallel
// traversal may emit a different order, and a parallel TopK may break
// radius ties differently), so parallel queries are never cached.
func (c *resultCache) cacheable(qry rcj.Query) bool {
	if c == nil || qry.Parallelism > 1 {
		return false
	}
	// Weight functions are opaque: Canonical cannot tell two of them apart,
	// so weighted rankings must never be memoized.
	if qry.Weight != nil {
		return false
	}
	if qry.TopK > 0 {
		return qry.TopK <= c.maxPairs
	}
	return qry.Limit > 0 && qry.Limit <= c.maxPairs
}

// get returns the cached result for key, bumping its recency.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cachedResult), true
}

// put stores res, evicting from the LRU tail to stay within capacity.
// Oversized results are the caller's problem: cacheable() bounds them.
func (c *resultCache) put(res *cachedResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[res.key]; ok {
		// A concurrent identical miss stored first; keep the incumbent.
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[res.key] = c.ll.PushFront(res)
	c.stores++
	c.pairs += int64(len(res.pairs))
	for c.ll.Len() > c.maxEnt {
		c.dropLocked(c.ll.Back())
		c.evictions++
	}
}

// invalidate purges every entry depending on the named index, returning how
// many were dropped. Called under the registry's unload path.
func (c *resultCache) invalidate(name string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		res := el.Value.(*cachedResult)
		for _, n := range res.names {
			if n == name {
				c.dropLocked(el)
				dropped++
				break
			}
		}
	}
	c.invalidations += int64(dropped)
	return dropped
}

// countFor returns how many entries depend on the named index (a gauge for
// GET /indexes).
func (c *resultCache) countFor(name string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		for _, nm := range el.Value.(*cachedResult).names {
			if nm == name {
				n++
				break
			}
		}
	}
	return n
}

// dropLocked removes one element. Caller holds c.mu.
func (c *resultCache) dropLocked(el *list.Element) {
	res := el.Value.(*cachedResult)
	c.ll.Remove(el)
	delete(c.byKey, res.key)
	c.pairs -= int64(len(res.pairs))
}

// cacheStats is the /metrics view of the cache.
type cacheStats struct {
	Entries       int   `json:"entries"`
	Pairs         int64 `json:"pairs"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Stores        int64 `json:"stores"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

func (c *resultCache) snapshot() cacheStats {
	if c == nil {
		return cacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:       c.ll.Len(),
		Pairs:         c.pairs,
		Hits:          c.hits,
		Misses:        c.misses,
		Stores:        c.stores,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
