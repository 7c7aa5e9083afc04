package rcj

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Rect is an axis-aligned query window in dataset coordinates. Containment
// is closed: points on the boundary are inside.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether (x, y) lies inside or on the boundary of r.
func (r Rect) Contains(x, y float64) bool {
	return r.MinX <= x && x <= r.MaxX && r.MinY <= y && y <= r.MaxY
}

func (r Rect) geom() geom.Rect {
	return geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// ErrBadQuery is wrapped by every query-validation failure.
var ErrBadQuery = errors.New("rcj: invalid query")

// Query is the composable ring-constrained join request: which algorithm to
// run and which subset of the result to return. The zero value is the unconstrained join under OBJ, the paper's best
// algorithm.
//
// The predicates — MaxDiameter, MinDistance, Region, TopK, Limit — are
// pushed down into the index traversal rather than applied to a
// materialized result: subtrees that cannot contribute a qualifying pair
// are pruned (observable via Stats.NodesPruned), and a TopK query on the
// R-tree tightens its own distance bound as better pairs are found
// (branch-and-bound; over sealed inputs the planner ranks from one scan
// instead, see TopK). For
// every combination the output is set-identical to post-filtering the
// unconstrained join with Matches (plus the TopK/Limit truncation).
type Query struct {
	// Algorithm picks the strategy. The zero value without ForceAlgorithm
	// means "planner decides": the query resolves through the cost-based
	// planner (ResolvePlan), which picks among the paper's algorithms
	// from the inputs' metadata and the calibrated cost model. Entry points
	// that cannot consult a planner fall back to OBJ, the paper's dominant
	// algorithm, so the zero value never silently runs INJ.
	Algorithm Algorithm
	// ForceAlgorithm uses Algorithm verbatim even when it is the zero value,
	// bypassing the planner entirely.
	ForceAlgorithm bool
	// Metric picks the distance the ring is measured in: L2 (the zero
	// value, the paper's Euclidean circle) or L1 (the Manhattan diamond).
	// Every other field means the same under both — diameters and distances
	// are then Manhattan ones. Both metrics run the one filter traversal and
	// the one verifier, so INJ and OBJ batch an L1 join as they batch an L2
	// one; Brute is Euclidean only. The planner does not price L1: an L1
	// query without a forced Algorithm runs OBJ.
	Metric Metric
	// Parallelism is ignored: every join runs on the goroutine that called
	// the entry point.
	//
	// Deprecated: kept only because the frozen benchmark sets it
	// (perf/embed.go:308); it goes with the next benchmark PR.
	Parallelism int

	// MaxDiameter, when > 0, keeps only pairs whose ring diameter is at
	// most this — the tourist's "no pair wider than I'm willing to walk".
	MaxDiameter float64
	// MinDistance, when > 0, drops pairs whose two points are closer than
	// this (trivially-tight pairs a planner may want to skip).
	MinDistance float64
	// Region, when non-nil, keeps only pairs whose derived middleman
	// location (the circle center) lies inside the window.
	Region *Rect
	// TopK, when > 0, returns only the k pairs with the smallest ring
	// diameters (ties broken by ascending P.ID then Q.ID), in ascending
	// order — the head of the paper's browsing order, computed without
	// materializing the rest. Over two sealed indexes an unweighted TopK
	// without a Region plans rule ranked-gabriel: one scan of each index,
	// then the k tightest pairs found and verified locally among the short
	// Gabriel edges (a pair is decided by its own closed disc), so every
	// page is read once. Otherwise (live inputs, Weight, Region, L1) the
	// R-tree runs it as branch-and-bound. TopK results do not stream
	// incrementally: the iterator yields them when the join completes.
	TopK int
	// Limit, when > 0, stops the join after this many pairs. Combined with
	// TopK it truncates the ranking; alone it returns a traversal-dependent
	// subset (cheap "peek at some results").
	Limit int

	// SortByDiameter orders collected results by ascending ring diameter
	// (RunCollect only; streaming ignores it, and TopK output is already in
	// that order).
	SortByDiameter bool
	// Stats, when non-nil, receives the run's statistics. For streaming
	// runs it is filled when the iterator terminates (the write
	// happens-before the range loop returns).
	Stats *Stats

	// Weight, when non-nil with TopK > 0, flips the top-k ranking from
	// ascending ring diameter to DESCENDING combined endpoint weight
	// w(P)+w(Q) — the school-bus pickup scenario: the k middleman locations
	// covering the heaviest point pairs. The output equals the head of
	// RankPairsByWeight over the unconstrained result, and the k-th combined
	// score becomes a dynamic traversal bound (pairs that cannot reach it
	// are dropped by the filter). The function must be pure. Requires
	// TopK > 0.
	Weight func(Point) float64
	// PlanOut, when non-nil, receives the resolved plan (the planner's
	// decision, or the echoed fixed plan) when the query is first resolved —
	// explicitly, or by the entry point that executes it.
	PlanOut *PlanDecision

	// plan is the decision the query resolved to, set by ResolvePlan and
	// carried with the query so one request is planned once: every later
	// resolve — the scheduler's, the executor's — returns it unchanged, and
	// the executor reads the planner's predicate order from it.
	plan *PlanDecision
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	// The negated forms also reject NaN (every NaN comparison is false),
	// which would otherwise read as "unset" and silently run the
	// unconstrained join, or prune the whole of it.
	switch {
	case !(q.MaxDiameter >= 0):
		return fmt.Errorf("%w: max diameter %g is not a non-negative number", ErrBadQuery, q.MaxDiameter)
	case !(q.MinDistance >= 0):
		return fmt.Errorf("%w: min distance %g is not a non-negative number", ErrBadQuery, q.MinDistance)
	case q.TopK < 0:
		return fmt.Errorf("%w: negative top-k %d", ErrBadQuery, q.TopK)
	case q.Limit < 0:
		return fmt.Errorf("%w: negative limit %d", ErrBadQuery, q.Limit)
	case q.Metric > L1:
		return fmt.Errorf("%w: unknown metric %d", ErrBadQuery, q.Metric)
	case q.Metric == L1 && q.Algorithm > OBJ:
		// The brute-force baseline (and the planner's Gabriel path) are
		// Euclidean.
		return fmt.Errorf("%w: %s is Euclidean only", ErrBadQuery, q.Algorithm)
	}
	if r := q.Region; r != nil && !(r.MinX <= r.MaxX && r.MinY <= r.MaxY) {
		return fmt.Errorf("%w: empty region window %+v", ErrBadQuery, *r)
	}
	if q.Weight != nil && q.TopK <= 0 {
		return fmt.Errorf("%w: Weight set without TopK", ErrBadQuery)
	}
	return nil
}

// Matches reports whether one pair satisfies the query's pair-level
// predicates (MaxDiameter, MinDistance, Region). It is exactly the
// post-filter the pushdown is equivalent to; TopK and Limit are set-level
// and not evaluated here.
func (q Query) Matches(p Pair) bool {
	d := p.Diameter()
	if q.MaxDiameter > 0 && d > q.MaxDiameter {
		return false
	}
	if q.MinDistance > 0 && d < q.MinDistance {
		return false
	}
	if q.Region != nil && !q.Region.Contains(p.Center.X, p.Center.Y) {
		return false
	}
	return true
}

func (q Query) algorithm() Algorithm {
	if !q.ForceAlgorithm && q.Algorithm == INJ {
		return OBJ
	}
	return q.Algorithm
}

// coreOptions compiles the request into executor options; joinViews adds
// the join shape (SelfJoin) when it pins the inputs.
func (q Query) coreOptions() core.Options {
	co := core.Options{
		Algorithm:   q.algorithm(),
		Metric:      q.Metric,
		MaxDiameter: q.MaxDiameter,
		MinDistance: q.MinDistance,
		TopK:        q.TopK,
		Limit:       q.Limit,
	}
	if q.plan != nil {
		// Reordering never changes the admitted set (the predicates are a
		// pure conjunction).
		co.PredicateOrder = q.plan.PredicateOrder
	}
	if q.Region != nil {
		r := q.Region.geom()
		co.Region = &r
	}
	if q.Weight != nil {
		w := q.Weight
		co.Weight = func(pe rtree.PointEntry) float64 {
			return w(Point{X: pe.P.X, Y: pe.P.Y, ID: pe.ID})
		}
	}
	return co
}

// Run computes the ring-constrained join of the datasets of q and p under
// qry, streaming each qualifying pair as the executor confirms it (TopK
// pairs arrive together, in ranking order, when the traversal finishes).
//
// A join is (q, p, qry) and nothing else: passing the same index twice
// (q == p) is the self-join of that dataset (the paper's postboxes
// scenario) — unordered pairs of distinct points whose enclosing circle
// contains no other dataset point, each reported once in the canonical form
// P.ID < Q.ID. Two different indexes are always two datasets, even over
// equal points.
//
// The returned iterator is single-use; cancelling ctx or breaking out of
// the loop aborts the join promptly without leaking goroutines, and the
// iterator then yields the context's error. An invalid query yields
// ErrBadQuery as the iterator's first element. qry.PlanOut is filled before
// Run returns; qry.Stats when the iterator terminates.
func (e *Engine) Run(ctx context.Context, q, p *Index, qry Query) iter.Seq2[Pair, error] {
	return runStream(ctx, q, p, qry)
}

// RunSelf is Run(ctx, ix, ix, qry).
//
// Deprecated: kept only because the frozen benchmark names it
// (perf/embed.go:314); it goes with the next benchmark PR.
func (e *Engine) RunSelf(ctx context.Context, ix *Index, qry Query) iter.Seq2[Pair, error] {
	return e.Run(ctx, ix, ix, qry)
}

// RunCollect is the materializing form of Run: it runs the query to
// completion under ctx and returns all qualifying pairs plus run
// statistics. The buffer counters in Stats are attributed to this join
// exactly via per-request access tagging, even while other joins run
// concurrently on the shared pool.
func (e *Engine) RunCollect(ctx context.Context, q, p *Index, qry Query) ([]Pair, Stats, error) {
	run, err := prepare(q, p, qry)
	if err != nil {
		return nil, Stats{}, err
	}
	// The collecting adapter: the executor appends in the caller's
	// goroutine, no channel in between.
	pairs, stats, err := run(ctx, func(co *core.Options) { co.Collect = true })
	if err != nil {
		return nil, Stats{}, err
	}
	out := fromCorePairs(pairs)
	if qry.SortByDiameter {
		SortPairsByDiameter(out)
	}
	return out, stats, nil
}

// RunSelfCollect is RunCollect(ctx, ix, ix, qry).
//
// Deprecated: kept only because the frozen benchmark names it
// (perf/live.go:311, perf/world.go:180); it goes with the next benchmark PR.
func (e *Engine) RunSelfCollect(ctx context.Context, ix *Index, qry Query) ([]Pair, Stats, error) {
	return e.RunCollect(ctx, ix, ix, qry)
}

// prepare is the single execution path under every join entry point. It
// validates the query and resolves its plan at once — PlanOut is filled
// when prepare returns, so a streaming caller may hand the plan out before
// the stream is consumed — and returns the traversal itself: pin the two
// views, run the executor, report the run's exact (tagged) statistics. The
// entry points differ only in sink, which installs where confirmed pairs go
// (core.Options.Collect or OnPair) before the traversal starts.
func prepare(q, p *Index, qry Query) (func(ctx context.Context, sink func(*core.Options)) ([]core.Pair, Stats, error), error) {
	if err := qry.Validate(); err != nil {
		return nil, err
	}
	qry, _ = qry.ResolvePlan(q, p)
	return func(ctx context.Context, sink func(*core.Options)) ([]core.Pair, Stats, error) {
		coreOpts := qry.coreOptions()
		sink(&coreOpts)
		var rec buffer.TagStats
		tq, tp, release, err := joinViews(q, p, &rec, &coreOpts)
		if err != nil {
			return nil, Stats{}, err
		}
		defer release()
		coreOpts.MaxDiameter = windowBound(q, p, qry)
		pairs, st, err := core.JoinContext(ctx, tq, tp, coreOpts)
		stats := statsFrom(st, &rec)
		if qry.Stats != nil {
			*qry.Stats = stats
		}
		return pairs, stats, err
	}, nil
}

// windowBound is the MaxDiameter prepare hands the executor: the query's
// own, which is taken as given (every shard sub-query carries the
// manifest's), or +Inf for a window with none over a live input. The
// executor derives a Euclidean window's bound (core.RegionDiameter) only
// under a zero MaxDiameter, so over two sealed indexes a window runs
// bounded, while live inputs keep the unbounded window until the live
// benchmark's mutation stream can take the faster reads (ROADMAP item 12).
func windowBound(q, p *Index, qry Query) float64 {
	if qry.Region != nil && qry.MaxDiameter == 0 && (q.live != nil || p.live != nil) {
		return math.Inf(1)
	}
	return qry.MaxDiameter
}

// runStream is the streaming adapter: the traversal runs inline, on the
// goroutine ranging over the iterator, and the executor's OnPair callback
// yields each pair directly (core.Options.OnPair). Its contract:
//
//   - No pair is yielded once yield has returned false or the run's
//     context is done; a cancellation that suppressed a pair ends the
//     stream with the context's error even if the traversal had no more
//     node to read.
//   - Cancelling parent, or breaking out of the range loop, cancels the
//     context the traversal runs under; the executor notices and returns.
//   - The run starts no goroutine, so none outlives the range loop, also
//     when the loop body panics.
//   - A non-nil error from the traversal is yielded as the final element
//     (with a zero value), unless the consumer already broke out.
func runStream(parent context.Context, q, p *Index, qry Query) iter.Seq2[Pair, error] {
	run, err := prepare(q, p, qry)
	if err != nil {
		return func(yield func(Pair, error) bool) {
			yield(Pair{}, err)
		}
	}
	if parent == nil {
		parent = context.Background()
	}
	return func(yield func(Pair, error) bool) {
		ctx, cancel := context.WithCancel(parent)
		defer cancel()

		var (
			broke   bool  // the consumer left the loop: yield is not called again
			dropped error // the context was done at a confirmed pair
		)
		done := ctx.Done()
		emit := func(cp core.Pair) {
			if broke || dropped != nil {
				return
			}
			select {
			case <-done:
				dropped = ctx.Err()
				return
			default:
			}
			if !yield(fromCorePair(cp), nil) {
				broke = true
				cancel()
			}
		}
		_, _, err := run(ctx, func(co *core.Options) { co.OnPair = emit })
		if broke {
			return
		}
		if err == nil {
			err = dropped
		}
		if err != nil {
			yield(Pair{}, err)
		}
	}
}

// selfJoin is the one place the join shape is derived: a join of an index
// with itself is the self-join of its dataset. It feeds the executor
// (core.Options.SelfJoin, set by joinViews) and the live subscriptions; two
// distinct indexes never share a tree, so index
// identity is dataset identity.
func selfJoin(q, p *Index) bool { return q == p }

// joinViews resolves the executor inputs for one traversal: tagged views of
// the two indexes' trees, so every buffer access of this run — and only
// this run — lands in rec, exact under concurrency. A self-join gets ONE
// view instance for both sides and coreOpts.SelfJoin; core reads view
// identity as "one verification pass covers both datasets".
//
// For a mutable index the view is its pinned epoch's merged base+delta
// read view — the snapshot-isolation point: the pin happens here, at
// traversal start, and release fires when the traversal completes, so
// concurrent mutations and compactions never touch a running query. A
// snapshot with tombstones additionally disables the verification face
// rule, the one traversal rule unsound over possibly-empty masked subtrees
// (every other pruning bound is conservative under inflated MBRs).
func joinViews(q, p *Index, rec *buffer.TagStats, coreOpts *core.Options) (tq, tp core.SpatialIndex, release func(), err error) {
	release = func() {}
	view := func(ix *Index) (core.SpatialIndex, error) {
		if ix.live == nil {
			return ix.tree.Tagged(rec), nil
		}
		snap, err := ix.live.Acquire()
		if err != nil {
			return nil, err
		}
		v, err := snap.View(rec)
		if err != nil {
			snap.Release()
			return nil, err
		}
		if snap.DisableFaceRule() {
			coreOpts.DisableFaceRule = true
		}
		prev := release
		release = func() { snap.Release(); prev() }
		return v, nil
	}
	tq, err = view(q)
	if err != nil {
		release()
		return nil, nil, nil, err
	}
	tp = tq
	coreOpts.SelfJoin = selfJoin(q, p)
	if !coreOpts.SelfJoin {
		tp, err = view(p)
		if err != nil {
			release()
			return nil, nil, nil, err
		}
	}
	return tq, tp, release, nil
}

// statsFrom merges executor statistics with the run's tagged buffer
// counters.
func statsFrom(st core.Stats, rec *buffer.TagStats) Stats {
	r := rec.Stats()
	return Stats{
		Candidates:   st.Candidates,
		Results:      st.Results,
		NodesPruned:  st.NodesPruned,
		PageFaults:   r.Misses,
		NodeAccesses: r.Accesses,
	}
}
