// Package rcj is the public API of the ring-constrained join library, a Go
// implementation of "Ring-constrained Join: Deriving Fair Middleman
// Locations from Pointsets via a Geometric Constraint" (Yiu, Karras,
// Mamoulis — EDBT 2008).
//
// Given two pointsets P and Q, the ring-constrained join returns every pair
// <p, q> whose smallest enclosing circle contains no other point of P ∪ Q.
// Each result carries the circle's center — a location equidistant from p
// and q that minimizes the maximum distance to both — making RCJ a
// parameter-free way to derive fair "middleman" locations: recycling
// stations between restaurants and residences, taxi stands between cinemas
// and restaurants, postboxes among buildings (a self-join), and so on.
//
// Basic use:
//
//	eng := rcj.NewEngine(rcj.EngineConfig{})
//	restaurants, _ := eng.BuildIndex(pointsP, rcj.IndexConfig{})
//	residences, _ := eng.BuildIndex(pointsQ, rcj.IndexConfig{})
//	pairs, _, _ := eng.RunCollect(ctx, residences, restaurants, rcj.Query{})
//	for _, pr := range pairs {
//		fmt.Println("place a station at", pr.Center, "radius", pr.Radius)
//	}
//
// A join is two indexes and a Query: Engine.Run streams its pairs,
// RunCollect materializes them, RunBatches yields them a leaf at a time.
// Passing the same index twice joins one dataset with itself (the postboxes
// scenario): each unordered pair once, P.ID < Q.ID.
// The zero Query is the full join under the planner's choice of algorithm;
// its fields push top-k, diameter, distance and region predicates down into
// the traversal, and Query.Metric = L1 measures the ring in Manhattan
// distance instead (the paper's Section 6 generalization) — same methods,
// same Pair, same predicates.
//
// The join runs on disk-page R*-trees through an LRU buffer manager, so its
// statistics (page faults, node accesses, candidate counts) mirror the
// paper's cost model. Indexes are built in memory; Index.Save persists one
// and OpenIndex serves it back from memory, a local file, or an HTTP origin
// (IndexConfig.Backend).
package rcj

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/live"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Point is an input location with a caller-assigned identifier. IDs must be
// unique within one dataset; the two sides of a join have independent ID
// namespaces.
type Point struct {
	X, Y float64
	ID   int64
}

// entry is the point in the index layer's form.
func (p Point) entry() rtree.PointEntry {
	return rtree.PointEntry{P: geom.Point{X: p.X, Y: p.Y}, ID: p.ID}
}

// ErrBadPoint is wrapped by every rejection of a point whose coordinates are
// NaN or infinite. Such a point has no place in an MBR hierarchy (every
// comparison against NaN is false, so it would silently vanish from — or
// poison — pruning), so every door into an index refuses it: BuildIndex,
// NewMutableIndex, Insert and ApplyBatch.
var ErrBadPoint = errors.New("rcj: invalid point")

// pointEntries converts points to the index layer's form, refusing the
// whole slice if any coordinate is not finite.
func pointEntries(points []Point) ([]rtree.PointEntry, error) {
	entries := make([]rtree.PointEntry, len(points))
	for i, p := range points {
		entries[i] = p.entry()
		if !geom.RectFromPoint(entries[i].P).Valid() {
			return nil, fmt.Errorf("%w: point %d has non-finite coordinates (%g, %g)", ErrBadPoint, p.ID, p.X, p.Y)
		}
	}
	return entries, nil
}

// Pair is one ring-constrained join result: the two matched points and
// their smallest enclosing circle. Center is the derived fair middleman
// location; Radius is its common distance to both endpoints, so 2·Radius is
// the pair's "ring diameter" used for ranking. Under Query.Metric = L1 the
// ring is the enclosing L1 ball: Center is still the midpoint, and Radius
// the Manhattan distance from it to either endpoint.
type Pair struct {
	P, Q   Point
	Center Point
	Radius float64
}

// Diameter returns the diameter of the pair's enclosing circle.
func (p Pair) Diameter() float64 { return 2 * p.Radius }

// Algorithm selects the join evaluation strategy.
type Algorithm = core.Algorithm

// The paper's algorithms a query may force, from baseline to most optimized
// (BIJ, the middle one, lives on in internal/core for the Fig. 13 study only:
// OBJ dominates it everywhere). OBJ wins in all of the paper's experiments
// and is the default.
const (
	INJ   = core.AlgINJ
	OBJ   = core.AlgOBJ
	Brute = core.AlgBrute
)

// Metric selects the distance a query's ring is measured in.
type Metric = core.Metric

// L2 is the paper's Euclidean ring and the zero value; L1 is the Manhattan
// generalization the paper proposes in its future work (Section 6), the
// natural metric for grid street networks: the ring becomes the smallest
// enclosing L1 ball (a diamond).
const (
	L2 = core.MetricL2
	L1 = core.MetricL1
)

// IndexConfig controls index construction: trees are STR bulk-loaded.
type IndexConfig struct {
	// PageSize is the disk page size in bytes (default 1024, the paper's
	// setting).
	PageSize int
	// BufferPages bounds the index's LRU node buffer; 0 means unbounded
	// (everything cached), negative also means unbounded.
	BufferPages int
	// Backend selects the page substrate OpenIndex serves a saved index
	// from: BackendMem (default) loads the whole page image into memory,
	// BackendFile reads pages from the file on each buffer miss, and
	// BackendHTTP fetches pages by HTTP range request from a URL (implied
	// when the source is an http(s) URL). Ignored by BuildIndex.
	Backend Backend
}

// Index is an immutable spatial index over one dataset, ready to join. An
// index is either self-contained (BuildIndex: private buffer pool) or
// attached to an Engine's shared pool (Engine.BuildIndex).
type Index struct {
	tree   *rtree.Tree
	pager  storage.Pager
	pool   *buffer.Pool
	pts    int
	owner  uint32
	shared bool // pool belongs to an Engine, not this index

	backend  Backend            // substrate of an opened index (mem for builds)
	remote   *storage.HTTPPager // non-nil for http-backend indexes
	prefetch *buffer.Prefetcher // non-nil when async readahead is running

	// Planner metadata cache: the root MBR of an immutable tree never
	// changes, so it is read once (one node access) on the first planned
	// query and reused for every later one.
	planMBROnce sync.Once
	planMBR     geom.Rect
	planMBROK   bool

	// live, when non-nil, makes this a mutable index: reads go through the
	// epoch layer's merged base+delta view instead of tree, and
	// Insert/Delete/Compact apply (see mutable.go). The immutable fields
	// above are unused (the live index owns its sealed bases).
	live *live.Index
}

// ErrNoPoints is returned when building an index from an empty slice.
var ErrNoPoints = errors.New("rcj: no points to index")

// BuildIndex indexes the points in an R*-tree with a private buffer pool.
// Indexes that should share one buffer across concurrent joins are built
// with Engine.BuildIndex instead.
func BuildIndex(points []Point, cfg IndexConfig) (*Index, error) {
	capacity := cfg.BufferPages
	if capacity <= 0 {
		capacity = -1
	}
	return buildIndex(points, cfg, buffer.NewPool(capacity), 0, false)
}

// buildIndex is the shared index builder: pool is either the index's private
// pool or an Engine's shared pool (shared=true), and owner namespaces the
// index's pages within it.
func buildIndex(points []Point, cfg IndexConfig, pool *buffer.Pool, owner uint32, shared bool) (*Index, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	entries, err := pointEntries(points)
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]struct{}, len(points))
	for _, p := range points {
		if _, dup := seen[p.ID]; dup {
			return nil, fmt.Errorf("rcj: duplicate point ID %d", p.ID)
		}
		seen[p.ID] = struct{}{}
	}

	pager := storage.NewMemPager(cfg.PageSize)
	tree, err := rtree.New(pager, pool, rtree.Config{Owner: owner, PageSize: cfg.PageSize})
	if err != nil {
		pager.Close()
		return nil, err
	}
	if err := tree.BulkLoad(entries, 0); err != nil {
		pager.Close()
		return nil, err
	}
	return &Index{tree: tree, pager: pager, pool: pool, pts: len(points), owner: owner, shared: shared}, nil
}

// Len returns the number of indexed points (the current live count for a
// mutable index).
func (ix *Index) Len() int {
	if ix.live != nil {
		return ix.live.Len()
	}
	return ix.pts
}

// Points returns all indexed points (in index leaf order; a mutable index
// returns its current point set in ascending ID order, the canonical order
// compaction seals).
func (ix *Index) Points() ([]Point, error) {
	if ix.live != nil {
		entries := ix.live.PointsSorted()
		out := make([]Point, len(entries))
		for i, e := range entries {
			out[i] = Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
		}
		return out, nil
	}
	entries, err := ix.tree.ScanAll()
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(entries))
	for i, e := range entries {
		out[i] = Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
	}
	return out, nil
}

// NearestNeighbor returns the indexed point closest to (x, y).
func (ix *Index) NearestNeighbor(x, y float64) (Point, error) {
	if ix.live != nil {
		return Point{}, errors.New("rcj: NearestNeighbor is not supported on mutable indexes")
	}
	e, err := ix.tree.NearestNeighbor(geom.Point{X: x, Y: y})
	if err != nil {
		return Point{}, err
	}
	return Point{X: e.P.X, Y: e.P.Y, ID: e.ID}, nil
}

// Backend returns the page substrate the index is served from (BackendMem
// for freshly built indexes).
func (ix *Index) Backend() Backend { return ix.backend }

// RemoteStats returns the transfer counters of an http-backend index, and
// whether the index is remote at all.
func (ix *Index) RemoteStats() (RemoteStats, bool) {
	if ix.remote == nil {
		return RemoteStats{}, false
	}
	return ix.remote.Remote(), true
}

// PrefetchStats returns the readahead counters of the index's prefetcher,
// and whether one is running (http-backend indexes only).
func (ix *Index) PrefetchStats() (PrefetchStats, bool) {
	if ix.prefetch == nil {
		return PrefetchStats{}, false
	}
	return ix.prefetch.Stats(), true
}

// Close releases the index's storage (and closes its page file, if any).
// For an Engine-built index, its cached nodes are also dropped from the
// engine's shared buffer. A remote index closes its pager first — aborting
// in-flight fetches and their retry loops — then drains the prefetcher, so
// Close returns promptly even when the origin has hung instead of waiting
// out a retry budget per queued readahead.
func (ix *Index) Close() error {
	if ix.live != nil {
		// The epoch layer closes subscription feeds, waits out any background
		// compaction, and retires the current base — which releases the
		// sealed index's resources once the last in-flight query drains.
		return ix.live.Close()
	}
	var err error
	if ix.remote != nil {
		err = ix.remote.Close()
	}
	if ix.prefetch != nil {
		ix.prefetch.Close()
	}
	if ix.shared {
		ix.pool.InvalidateOwner(ix.owner)
	}
	if cerr := ix.pager.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats summarizes what a join run did; see the fields for the paper
// concepts they correspond to. The buffer counters (PageFaults,
// NodeAccesses) are attributed to the run exactly via per-join access
// tagging, even when other joins run concurrently on the same shared pool.
type Stats struct {
	// Candidates is the number of pairs that survived the filter step and
	// were verified (Table 4's candidate counts).
	Candidates int64
	// Results is the number of result pairs.
	Results int64
	// PageFaults counts buffer misses across both indexes during the join.
	PageFaults int64
	// NodeAccesses counts logical R-tree node reads, the paper's CPU
	// proxy.
	NodeAccesses int64
	// NodesPruned counts index subtrees the query predicates discarded
	// without reading (0 for unconstrained joins) — how much work the
	// pushdown saved versus computing the full join.
	NodesPruned int64
	// BoundKilledCandidates counts filtered candidates killed at the start
	// of verification because a TopK run's dynamic diameter bound had
	// tightened past them since they were filtered — verification work the
	// branch-and-bound saved beyond filtering.
	BoundKilledCandidates int64
}

// BufferHitRatio returns the fraction of this run's node accesses served
// from the buffer: 1 - PageFaults/NodeAccesses (0 when nothing was read).
func (s Stats) BufferHitRatio() float64 {
	if s.NodeAccesses == 0 {
		return 0
	}
	return 1 - float64(s.PageFaults)/float64(s.NodeAccesses)
}

func fromCorePair(cp core.Pair) Pair {
	return Pair{
		P:      Point{X: cp.P.P.X, Y: cp.P.P.Y, ID: cp.P.ID},
		Q:      Point{X: cp.Q.P.X, Y: cp.Q.P.Y, ID: cp.Q.ID},
		Center: Point{X: cp.Circle.Center.X, Y: cp.Circle.Center.Y},
		Radius: cp.Circle.Radius,
	}
}

func fromCorePairs(cps []core.Pair) []Pair {
	out := make([]Pair, len(cps))
	for i, cp := range cps {
		out[i] = fromCorePair(cp)
	}
	return out
}

// SortPairsByDiameter orders pairs by ascending enclosing-circle diameter,
// breaking ties by (P.ID, Q.ID) for determinism. Browsing this order, the
// tightest (most convenient) middleman locations come first.
func SortPairsByDiameter(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Radius != pairs[j].Radius {
			return pairs[i].Radius < pairs[j].Radius
		}
		if pairs[i].P.ID != pairs[j].P.ID {
			return pairs[i].P.ID < pairs[j].P.ID
		}
		return pairs[i].Q.ID < pairs[j].Q.ID
	})
}

// RankPairsByWeight orders pairs by descending combined weight, where weight
// assigns a score to each endpoint (the paper's school-bus scenario ranks
// estate pairs by the number of children). Ties break by ascending diameter
// then IDs.
func RankPairsByWeight(pairs []Pair, weight func(Point) float64) {
	score := func(pr Pair) float64 { return weight(pr.P) + weight(pr.Q) }
	sort.Slice(pairs, func(i, j int) bool {
		si, sj := score(pairs[i]), score(pairs[j])
		if si != sj {
			return si > sj
		}
		if pairs[i].Radius != pairs[j].Radius {
			return pairs[i].Radius < pairs[j].Radius
		}
		if pairs[i].P.ID != pairs[j].P.ID {
			return pairs[i].P.ID < pairs[j].P.ID
		}
		return pairs[i].Q.ID < pairs[j].Q.ID
	})
}
