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
//     verified against both trees (Algorithm 3).
//   - INJ (Algorithm 5) is that pipeline on batches of one point: each q ∈ Q
//     in depth-first leaf order gets its own incremental-nearest-neighbour
//     walk and its own verification.
//   - BIJ (Algorithm 6) batches a whole TQ leaf: one traversal filters all
//     its points concurrently and one pass per tree verifies all its
//     circles.
//   - OBJ (Section 4.2) is BIJ plus the symmetric pruning rule (Lemma 5),
//     seeding each point's pruner set with its leaf siblings from Q.
//   - Brute force (Section 1): nested loop with a circle range search per
//     pair — the O(|P|·|Q|) baseline of Table 4, with no filter at all.
//
// Containment is the closed-disk predicate geom.Circle.Covers shared with
// the brute force, so all algorithms return identical result sets.
package core

import (
	"context"
	"sync"

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
	// ReadNode fetches one node, counting buffer accesses/faults.
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
	// Ignored by AlgBrute. Seed fixes the shuffle.
	RandomLeafOrder bool
	// Seed seeds the leaf shuffle when RandomLeafOrder is set.
	Seed int64
	// Parallelism, when > 1, distributes TQ leaves over that many worker
	// goroutines. The result set is identical to the sequential run but
	// the emission order is not deterministic. Ignored by AlgBrute.
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
	// OnPair, when non-nil, streams each result pair as it is confirmed.
	// Under TopK the final pairs are only known when the traversal ends, so
	// OnPair fires at the end, in ascending diameter order.
	OnPair func(Pair)
	// OnBatch, when non-nil, streams confirmed pairs grouped by verification
	// batch — the executor's unit of work (one batch per TQ leaf under
	// BIJ/OBJ, per query point under INJ and brute force; TopK delivers its
	// full ranking as one final batch). Batches with no surviving pair are
	// skipped. The callee owns the slice. This is the hook multi-request
	// traversal sharing demuxes on: one traversal, per-leaf fan-out to many
	// consumers.
	OnBatch func([]Pair)

	// The query predicates below select a subset of the join result and are
	// pushed into the index traversal (see query.go): for every combination,
	// the output is set-identical to post-filtering the unconstrained join.

	// MaxDiameter, when > 0, keeps only pairs whose enclosing-circle
	// diameter (= the distance between the two points) is at most this. The
	// filter traversal stops at the bound instead of exhausting the tree.
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
	// distance bound (branch-and-bound), shared atomically across parallel
	// workers.
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
	// pure and is called concurrently under Parallelism.
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
	// pairs"). For AlgBrute it is |P|·|Q|.
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
	// Region window — the observable work pushdown saved versus the
	// unconstrained join.
	NodesPruned int64
	// BoundKilledCandidates counts filtered candidates dropped at the start
	// of verification because the diameter bound had tightened past them
	// since they were filtered (TopK's dynamic bound) — verification work
	// the bound saved beyond filtering.
	BoundKilledCandidates int64
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

// joiner carries one run's state. In a parallel run each worker owns a
// private joiner (stats, scratch, current batch) and shares only the trees,
// the context, the predicate state (shared) and — through parent — the
// run's sinks.
type joiner struct {
	tq, tp SpatialIndex
	opts   Options
	ctx    context.Context
	shared *runShared // TopK/Limit state, shared across workers; nil without predicates
	stats  Stats
	batch  []Pair // confirmed pairs of the current batch, awaiting deliver

	// parent is the run's root joiner for a parallel worker, nil otherwise.
	// The root owns the sinks: out, and mu serializing every deliver.
	parent *joiner
	mu     sync.Mutex
	out    []Pair

	// predOrder is the compiled pair-predicate evaluation order (see
	// compilePredOrder), resolved once per run and copied to every worker.
	predOrder [3]Predicate

	// Per-worker scratch reused across filter calls (a joiner is never used
	// concurrently): the traversal heap and the filter's per-query state
	// (whose pruner sets and candidate slices would otherwise be the dominant
	// steady-state allocation — one per leaf point per leaf).
	fheap       filterHeap
	bulkScratch []bulkQuery
}

// emit records a confirmed result pair in the current batch. Under TopK the
// pair enters the shared bounded heap instead (delivered when the run ends);
// under Limit the emission beyond the cap is suppressed and the run flagged
// to stop.
func (j *joiner) emit(p Pair) {
	if sh := j.shared; sh != nil {
		if sh.topk != nil {
			sh.topk.offer(p)
			return
		}
		if sh.limit > 0 {
			n := sh.emitted.Add(1)
			if n > sh.limit {
				return
			}
			if n == sh.limit {
				sh.stopped.Store(true)
			}
		}
	}
	j.batch = append(j.batch, p)
}

// deliver is the one way out of the executor: the current batch — a
// verification batch's survivors, a brute-force outer point's, or a TopK
// run's final ranking — is counted and handed to every configured sink
// (Collect, then OnPair per pair, then OnBatch), under the run's lock so
// parallel workers never interleave inside a sink. Empty batches are
// skipped. OnBatch's callee owns the slice; otherwise it is recycled.
func (j *joiner) deliver() {
	batch := j.batch
	if len(batch) == 0 {
		return
	}
	j.batch = batch[:0]
	j.stats.Results += int64(len(batch))
	root := j
	if j.parent != nil {
		root = j.parent
	}
	root.mu.Lock()
	defer root.mu.Unlock()
	if root.opts.Collect {
		root.out = append(root.out, batch...)
	}
	if onPair := root.opts.OnPair; onPair != nil {
		for _, p := range batch {
			onPair(p)
		}
	}
	if onBatch := root.opts.OnBatch; onBatch != nil {
		j.batch = nil
		onBatch(batch)
	}
}

// keepSelfPair reports whether a pair should be emitted under self-join
// canonicalization: identity pairs are dropped and each unordered pair is
// kept only in (smaller ID, larger ID) orientation.
func (j *joiner) keepSelfPair(p, q rtree.PointEntry) bool {
	return p.ID < q.ID
}
