package rcj

import (
	"context"
	"iter"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
)

// EffectiveAlgorithm resolves the algorithm the query will actually run:
// Algorithm verbatim when forced or non-zero, otherwise the INJ default is
// overridden to OBJ (the paper's dominant algorithm). Two queries batch
// together only when they resolve to the same algorithm.
func (q Query) EffectiveAlgorithm() Algorithm { return q.algorithm() }

// BatchEnvelope returns the loosest query covering every member of a batch:
// one traversal of the envelope visits every pair any member wants, so each
// member's exact result is the envelope stream post-filtered with its own
// Matches — sound because every pushdown predicate is proven set-identical
// to post-filtering. Result-shaping fields (TopK, Limit, SortByDiameter,
// Stats) are zeroed: set-level truncation is per-member, handled by the
// demultiplexer. Algorithm, ForceAlgorithm, Metric and Parallelism are taken
// from the first member; callers group members so those agree.
func BatchEnvelope(qs []Query) Query {
	if len(qs) == 0 {
		return Query{}
	}
	env := Query{
		Algorithm:      qs[0].Algorithm,
		ForceAlgorithm: qs[0].ForceAlgorithm,
		Metric:         qs[0].Metric,
		Parallelism:    qs[0].Parallelism,
		MaxDiameter:    qs[0].MaxDiameter,
		MinDistance:    qs[0].MinDistance,
	}
	var region *Rect
	if qs[0].Region != nil {
		r := *qs[0].Region
		region = &r
	}
	for _, q := range qs[1:] {
		// MaxDiameter: any unbounded member unbounds the envelope; else max.
		if env.MaxDiameter > 0 && (q.MaxDiameter == 0 || q.MaxDiameter > env.MaxDiameter) {
			env.MaxDiameter = q.MaxDiameter
		}
		// MinDistance: any member without a floor drops the envelope's; else min.
		if env.MinDistance > 0 && q.MinDistance < env.MinDistance {
			env.MinDistance = q.MinDistance
		}
		// Region: any member without a window unbounds the envelope; else union.
		if region != nil {
			if q.Region == nil {
				region = nil
			} else {
				region.MinX = math.Min(region.MinX, q.Region.MinX)
				region.MinY = math.Min(region.MinY, q.Region.MinY)
				region.MaxX = math.Max(region.MaxX, q.Region.MaxX)
				region.MaxY = math.Max(region.MaxY, q.Region.MaxY)
			}
		}
	}
	env.Region = region
	return env
}

// Canonical returns a stable textual form of the query's result-shaping
// fields — resolved algorithm, metric, parallelism, predicates, TopK, Limit
// — for use as a cache key: two queries with equal Canonical strings produce
// the same result set over the same index generation. Float predicates are
// rendered by exact bit pattern, so no two distinct bounds collide.
func (q Query) Canonical() string {
	var b strings.Builder
	b.WriteString("alg=")
	b.WriteString(q.algorithm().String())
	b.WriteString(";metric=")
	b.WriteString(strconv.Itoa(int(q.Metric)))
	b.WriteString(";par=")
	b.WriteString(strconv.Itoa(q.Parallelism))
	b.WriteString(";md=")
	b.WriteString(strconv.FormatUint(math.Float64bits(q.MaxDiameter), 16))
	b.WriteString(";mind=")
	b.WriteString(strconv.FormatUint(math.Float64bits(q.MinDistance), 16))
	b.WriteString(";reg=")
	if r := q.Region; r != nil {
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MinX), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MinY), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MaxX), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MaxY), 16))
	} else {
		b.WriteString("nil")
	}
	b.WriteString(";k=")
	b.WriteString(strconv.Itoa(q.TopK))
	b.WriteString(";lim=")
	b.WriteString(strconv.Itoa(q.Limit))
	if q.Weight != nil {
		// Weight functions are opaque: the marker keeps weighted runs from
		// colliding with the diameter ranking, but two different weight
		// functions still canonicalize alike — weighted queries must not be
		// cached by Canonical alone (the daemon's result cache excludes them).
		b.WriteString(";w=1")
	}
	return b.String()
}

// RunBatches is Run at the executor's leaf granularity: instead of one pair
// per element, the iterator yields the confirmed survivors of each
// verification batch (one slice per TQ leaf under OBJ/BIJ; TopK arrives as
// one final slice in ranking order). Concatenating the slices of a
// sequential run reproduces Run's stream exactly. This is the traversal
// the scheduler's cross-request batching demultiplexes: each member filters
// every slice with its own Query.Matches.
func (e *Engine) RunBatches(ctx context.Context, q, p *Index, qry Query) iter.Seq2[[]Pair, error] {
	return runStream(ctx, q, p, qry, batchSink)
}

// batchSink converts each core batch once and hands the slice over the
// stream bridge: one channel send per verification batch instead of one per
// pair. A shared traversal pins ONE snapshot for every batch member — each
// member was admitted before the traversal starts, so the snapshot is
// current within every member's request window.
func batchSink(co *core.Options, emit func([]Pair)) {
	co.OnBatch = func(cb []core.Pair) { emit(fromCorePairs(cb)) }
}
