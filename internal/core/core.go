// Package core implements the ring-constrained join (RCJ), the primary
// contribution of Yiu, Karras and Mamoulis (EDBT 2008): given pointsets P
// and Q indexed by R*-trees, find every pair <p, q> whose smallest enclosing
// circle contains no other point of P ∪ Q.
//
// The package provides the paper's full algorithm family as one pipeline
// with two switches (exec.go) — filter, verify, deliver, one batch of query
// points at a time:
//
//   - The filter (Algorithms 2 and 7, one traversal: bulkFilter) walks TP
//     in ascending distance from the batch's centroid, accumulating per
//     query point the Ψ− half-plane pruners of Lemmas 1–3 until the whole
//     tree is pruned; surviving candidates become enclosing circles
//     verified against both trees (Algorithm 3). Every queued entry
//     carries the query points still live for it: with no diameter bound,
//     a subtree hands its children only the query points whose pruners did
//     not contain its MBR (Lemma 3: they contain everything below it, and
//     pruner sets only grow), so a point is probed by the few query points
//     that can still pair with it, with every count unchanged.
//   - INJ (Algorithm 5) is that pipeline on batches of one point: each q ∈ Q
//     in depth-first leaf order gets its own incremental-nearest-neighbour
//     walk and its own verification.
//   - BIJ (Algorithm 6) batches a whole TQ leaf: one traversal filters all
//     its points concurrently and one pass per tree verifies all its
//     circles.
//   - OBJ (Section 4.2) is BIJ plus the symmetric pruning rule (Lemma 5),
//     seeding each point's pruner set with its leaf siblings from Q when
//     the point is first probed — under a diameter bound, only the query
//     points the bound admits are ever probed or seeded.
//   - Brute force (Section 1): nested loop with a circle range search per
//     pair — the O(|P|·|Q|) baseline of Table 4, with no filter at all.
//   - Gabriel (not in the paper): RCJ(P, Q) is the bichromatic edge set of
//     the Gabriel graph of P ∪ Q, so one scan of each tree and one exact
//     Delaunay triangulation (internal/delaunay) answer an unconstrained
//     join, reading every page once.
//
// Every ring is decided by one exact predicate, geom.DiscSign — the sign of
// (x−p)·(x−q), ≤ 0 on the closed disc — shared with the brute force, so all
// algorithms return identical result sets, a function of the float64
// coordinates alone. The float tests that prune a traversal are widened
// outward and never decide.
package core

import (
	"context"
	"sync"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// SpatialIndex is the access-method contract the join algorithms run over:
// a disk-paged hierarchy whose nodes carry either points (leaves) or
// MBR-tagged child pointers. The R*-tree is the paper's instantiation;
// Section 3 notes the methodology applies to any hierarchical spatial index.
// Two methods make an index: every traversal the executor performs — the
// filter's best-first descent, verification, the outer leaf walk
// (rtree.VisitLeaves) — is built from them, so a view that wraps, merges or
// traces an index (internal/live's base+delta view is one) implements these
// and nothing else.
type SpatialIndex interface {
	// Root returns the root page, or storage.InvalidPageID when empty.
	Root() storage.PageID
	// ReadNode fetches one node, counting buffer accesses/faults. The node
	// is immutable and stays valid after later reads: the outer walk holds
	// a leaf's ancestors while the pipeline reads the inner tree. The
	// buffer pool caches decoded nodes and eviction only drops its
	// reference; nothing recycles a node. Every backend, and every shard of
	// a sharded index, reads through an rtree.Tree on that pool;
	// internal/live's view returns cached nodes or fresh copies, never a
	// mutated original.
	ReadNode(storage.PageID) (*rtree.Node, error)
}

var _ SpatialIndex = (*rtree.Tree)(nil)

// Pair is one RCJ result: the two points and their smallest enclosing
// circle. The circle center is the derived "fair middleman" location; the
// radius is the common distance from the center to both points.
type Pair struct {
	P      rtree.PointEntry
	Q      rtree.PointEntry
	Circle geom.Circle
}

// Algorithm selects the RCJ evaluation strategy.
type Algorithm int

const (
	// AlgINJ is the index nested loop join (Algorithm 5): filter and
	// verification one query point at a time, depth-first over TQ.
	AlgINJ Algorithm = iota
	// AlgBIJ is the bulk index nested loop join (Algorithm 6): filter and
	// verification one TQ leaf at a time.
	AlgBIJ
	// AlgOBJ is BIJ optimized with the symmetric pruning rule of Lemma 5.
	AlgOBJ
	// AlgBrute is the quadratic nested loop with a range search per pair.
	AlgBrute
	// AlgGabriel reads both trees once and joins on one exact Delaunay
	// triangulation of P ∪ Q (gabriel.go). Euclidean only.
	AlgGabriel
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgINJ:
		return "INJ"
	case AlgBIJ:
		return "BIJ"
	case AlgOBJ:
		return "OBJ"
	case AlgBrute:
		return "BRUTE"
	case AlgGabriel:
		return "GABRIEL"
	default:
		return "unknown"
	}
}

// Metric selects the distance the ring is measured in.
type Metric uint8

const (
	// MetricL2 is the paper's Euclidean ring: the smallest enclosing circle.
	MetricL2 Metric = iota
	// MetricL1 is the Manhattan generalization of Section 6: the smallest
	// enclosing L1 ball, a diamond (see l1.go).
	MetricL1
)

// Options tunes a join run. The zero value runs INJ with every optimization
// the paper describes for it.
type Options struct {
	// Algorithm picks the evaluation strategy (default AlgINJ).
	Algorithm Algorithm
	// Metric picks the ring's distance (default MetricL2). MetricL1 swaps
	// exactly two kernels — the filter's pruner (quadrants, one query point
	// per batch whatever Algorithm says) and the ball verifier — and nothing
	// else: pairs carry the L1 ball in Circle, so every predicate below
	// reads the Manhattan diameter. AlgBrute is Euclidean only.
	Metric Metric
	// SelfJoin declares that TP and TQ are the same tree over one dataset
	// (the paper's postboxes scenario). Identity pairs are excluded and
	// each unordered pair is reported once, with the smaller ID first.
	SelfJoin bool
	// SkipVerification omits the verification step, reporting raw filter
	// candidates — only meaningful for the Figure 14 cost decomposition.
	SkipVerification bool
	// DisableFaceRule turns off the face-inside-circle verification
	// shortcut (Algorithm 3 case 4) for the ablation bench.
	DisableFaceRule bool
	// RandomLeafOrder processes TQ leaves in a shuffled order instead of
	// depth-first, quantifying the locality argument of Section 3.4.
	// Ignored by AlgBrute and AlgGabriel. Seed fixes the shuffle.
	RandomLeafOrder bool
	// Seed seeds the leaf shuffle when RandomLeafOrder is set.
	Seed int64
	// Parallelism is ignored: every join runs to completion on the
	// goroutine that called JoinContext.
	//
	// Deprecated: kept only because the frozen benchmark names it
	// (perf/stacks.go:77); it goes with the next benchmark PR.
	Parallelism int
	// LeafSampleEvery, when > 1, processes only every k-th leaf of TQ —
	// the sampling mode the cost estimator uses to extrapolate a full
	// run's work from a fraction of it. Results are then a sample, not
	// the exact join.
	LeafSampleEvery int
	// Collect controls whether result pairs are materialized. When false,
	// only statistics are gathered (the large experiment sweeps count
	// results without holding millions of pairs).
	Collect bool
	// OnPair, when non-nil, streams each result pair as it is confirmed,
	// on the goroutine that called JoinContext. Under TopK the final pairs
	// are only known when the traversal ends, so OnPair fires at the end,
	// in ascending diameter order.
	OnPair func(Pair)

	// The query predicates below select a subset of the join result and are
	// pushed into the index traversal (see query.go): for every combination,
	// the output is set-identical to post-filtering the unconstrained join.

	// MaxDiameter, when > 0, keeps only pairs whose enclosing-circle
	// diameter (= the distance between the two points) is at most this. The
	// filter traversal stops at the bound instead of exhausting the tree.
	// Zero on a Euclidean Region query lets the executor derive the window's
	// own bound (RegionDiameter), with the same pairs; +Inf is no bound.
	MaxDiameter float64
	// MinDistance, when > 0, drops pairs whose points are closer than this.
	// Excluded points still act as Ψ− pruners and verification witnesses.
	MinDistance float64
	// Region, when non-nil, keeps only pairs whose circle center — the
	// midpoint of the two points — lies inside the (closed) window. TP
	// subtrees that cannot produce a center inside the window are pruned.
	Region *geom.Rect
	// TopK, when > 0, keeps only the k pairs with the smallest diameters
	// (ties broken by ascending P.ID then Q.ID), returned in ascending
	// order. The current k-th diameter dynamically tightens the traversal's
	// distance bound (branch-and-bound).
	TopK int
	// Limit, when > 0, stops the join after this many pairs. Without TopK
	// the returned pairs are traversal-order-dependent (any Limit-sized
	// subset of the result); with TopK it truncates the ranking.
	Limit int
	// Weight, when non-nil with TopK > 0, flips the top-k ranking from
	// ascending diameter to descending combined endpoint weight — the
	// paper's school-bus scenario, where pairs are browsed by how many
	// children they serve. The k-th combined score becomes the dynamic
	// bound: once the heap fills, candidates strictly below it are killed
	// before verification. The output equals the head of
	// RankPairsByWeight over the unconstrained join; the weighted ranking
	// arrives in one final batch, in descending score order. Weight must be
	// pure.
	Weight func(rtree.PointEntry) float64
	// PredicateOrder, when non-empty, is the order admitPair evaluates the
	// pair-level predicates in (a planner puts the most selective first).
	// Omitted predicates are appended in default order; the predicates are
	// a conjunction, so every order admits the identical set.
	PredicateOrder []Predicate
}

// Stats reports what a join run did. I/O and node-access counters live in
// the buffer pool shared by the trees; the experiment harness snapshots
// those around the call.
type Stats struct {
	// Candidates is the number of candidate pairs that survived the filter
	// step and entered verification (Table 4's "number of candidate
	// pairs"). A self-join counts each unordered pair once, since it
	// verifies only the orientation it emits. For AlgBrute it is |P|·|Q|,
	// for AlgGabriel the Delaunay edges it tested (see delaunay.Mesh).
	Candidates int64
	// Results is the number of RCJ result pairs.
	Results int64
	// FilterHeapPops counts priority-queue pops in the filter step, a
	// CPU-work proxy independent of the buffer.
	FilterHeapPops int64
	// VerifiedNodes counts R-tree nodes visited during verification.
	VerifiedNodes int64
	// OuterLeaves counts TQ leaves processed, the unit the sampling cost
	// estimator extrapolates over.
	OuterLeaves int64
	// NodesPruned counts subtrees the query predicates discarded without
	// reading — TP subtrees cut by MaxDiameter, TopK's dynamic bound, or
	// Region, plus outer TQ subtrees whose midpoint rect with TP misses the
	// Region window or that lie beyond the window's reach (farther than
	// MaxDiameter/2 from it; a window derives that MaxDiameter itself, see
	// RegionDiameter) — the observable work pushdown saved versus the
	// unconstrained join.
	NodesPruned int64
}

// Join computes the ring-constrained join of the pointsets indexed by tq
// (the outer input Q) and tp (the inner input P), returning the result pairs
// (nil unless opts.Collect) and run statistics.
func Join(tq, tp SpatialIndex, opts Options) ([]Pair, Stats, error) {
	return JoinContext(context.Background(), tq, tp, opts)
}

// JoinContext is Join under a context: the pipeline of exec.go runs until
// completion or cancellation.
// When ctx is cancelled the join aborts promptly — without finishing the
// current leaf — and returns ctx.Err(); partial statistics reflect the work
// actually done.
func JoinContext(ctx context.Context, tq, tp SpatialIndex, opts Options) ([]Pair, Stats, error) {
	j := &joiner{tq: tq, tp: tp, opts: opts}
	return j.execute(ctx)
}

// joiner carries one run's state. A run executes on the goroutine that
// called JoinContext, start to finish, so nothing in it is shared.
type joiner struct {
	tq, tp SpatialIndex
	opts   Options
	ctx    context.Context
	stats  Stats
	out    []Pair // the Collect sink

	// topk is a TopK run's bounded heap and dynamic bound; nil otherwise.
	topk *topkState
	// emitted counts a Limit run's pairs (without TopK, which subsumes
	// Limit); stopped is set when it reaches the limit.
	emitted int
	stopped bool

	// predOrder is the compiled pair-predicate evaluation order (see
	// compilePredOrder), resolved once per run.
	predOrder [3]Predicate

	scratch

	// filtered, when set, observes every batch's filter state before
	// verification (the pruner sets are recycled by the next batch). Tests
	// count half-planes through it; a run never sets it.
	filtered func([]bulkQuery)
}

// scratch is a joiner's working memory, reused across batches and, through
// scratchPool, across runs: the traversal heap, the filter's live-list arena
// and per-query state (whose pruner sets and candidate slices would
// otherwise be the dominant steady-state allocation — one per leaf point per
// leaf), the current outer leaf's points (processLeaf), the candidate
// batch's backing arrays (candidateBatch), the verifier's stack, the
// confirmed pairs of the current batch, filterL1's quadrants, and
// runGabriel's scanned points and triangulation. Every user resets what it
// takes, so a recycled scratch is only ever a head start on capacity.
type scratch struct {
	fheap       filterHeap
	live        []int32
	bulkScratch []bulkQuery
	leafBuf     []rtree.PointEntry
	candBacking []candidate
	cands       []*candidate
	vstack      []*candidate       // verifyNode's per-entry candidate lists
	l1Pruners   l1Pruners          // filterL1's quadrants
	batch       []Pair             // confirmed pairs of the current batch, awaiting deliver
	gabP, gabQ  []rtree.PointEntry // runGabriel's scanned inputs
	gabOut      []gabrielPair      // and its sorted result
	mesh        delaunay.Mesh      // and triangulation
}

// scratchPool recycles scratch between joiners.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// takeScratch gives j a recycled scratch; the returned holder goes back
// with putScratch when j is done.
func (j *joiner) takeScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	j.scratch = *s
	return s
}

// putScratch returns j's scratch to the pool through holder s. The stale
// candidate pointers are cleared first, so a pooled scratch keeps no
// earlier backing array alive, and a large triangulation is dropped.
func (j *joiner) putScratch(s *scratch) {
	clear(j.vstack[:cap(j.vstack)])
	clear(j.cands[:cap(j.cands)])
	j.trimGabriel()
	*s = j.scratch
	j.scratch = scratch{}
	scratchPool.Put(s)
}

// emit records a confirmed result pair in the current batch. Under TopK the
// pair enters the bounded heap instead (delivered when the run ends); under
// Limit the emission beyond the cap is suppressed and the run flagged to
// stop.
func (j *joiner) emit(p Pair) {
	if j.topk != nil {
		j.topk.offer(p)
		return
	}
	if limit := j.opts.Limit; limit > 0 {
		if j.stopped {
			return
		}
		j.emitted++
		j.stopped = j.emitted == limit
	}
	j.batch = append(j.batch, p)
}

// deliver is the one way out of the executor: the current batch — a
// verification batch's survivors, a brute-force outer point's, or a TopK
// run's final ranking — is counted and handed to every configured sink
// (Collect, then OnPair per pair). Empty batches are skipped; the batch's
// slice is recycled.
func (j *joiner) deliver() {
	batch := j.batch
	if len(batch) == 0 {
		return
	}
	j.batch = batch[:0]
	j.stats.Results += int64(len(batch))
	if j.opts.Collect {
		j.out = append(j.out, batch...)
	}
	if onPair := j.opts.OnPair; onPair != nil {
		for _, p := range batch {
			onPair(p)
		}
	}
}

// keepSelfPair reports whether a pair should be emitted under self-join
// canonicalization: identity pairs are dropped and each unordered pair is
// kept only in (smaller ID, larger ID) orientation.
func (j *joiner) keepSelfPair(p, q rtree.PointEntry) bool {
	return p.ID < q.ID
}
