package rcj

import (
	"context"

	"repro/internal/buffer"
	"repro/internal/core"
)

// L1Pair is one Manhattan-metric ring-constrained join result: the two
// matched points and their smallest enclosing L1 ball (a diamond). Center is
// the fair middleman under Manhattan travel — the natural metric for grid
// street networks, per the generalization the paper proposes in its future
// work.
type L1Pair struct {
	P, Q   Point
	Center Point
	Radius float64 // L1 radius: Manhattan distance from Center to P and Q
}

// JoinL1 computes the Manhattan-metric ring-constrained join between the
// datasets of q and p: all pairs whose smallest enclosing L1 ball contains
// no other point of either dataset. It aborts promptly with ctx.Err() on
// cancellation. Like every join it traverses joinViews' tagged views, so
// the statistics are exact under concurrency and a mutable index is read at
// the epoch current when the traversal starts.
func JoinL1(ctx context.Context, q, p *Index) ([]L1Pair, Stats, error) {
	return runL1(ctx, q, p, false)
}

// SelfJoinL1 computes the Manhattan-metric self-join of one dataset; each
// unordered pair is reported once with P.ID < Q.ID.
func SelfJoinL1(ctx context.Context, ix *Index) ([]L1Pair, Stats, error) {
	return runL1(ctx, ix, ix, true)
}

func runL1(ctx context.Context, q, p *Index, self bool) ([]L1Pair, Stats, error) {
	coreOpts := core.Options{SelfJoin: self, Collect: true}
	var rec buffer.TagStats
	tq, tp, release, err := joinViews(q, p, &rec, &coreOpts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer release()
	pairs, st, err := core.JoinL1Context(ctx, tq, tp, coreOpts)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]L1Pair, len(pairs))
	for i, cp := range pairs {
		out[i] = L1Pair{
			P:      Point{X: cp.P.P.X, Y: cp.P.P.Y, ID: cp.P.ID},
			Q:      Point{X: cp.Q.P.X, Y: cp.Q.P.Y, ID: cp.Q.ID},
			Center: Point{X: cp.Ball.Center.X, Y: cp.Ball.Center.Y},
			Radius: cp.Ball.Radius,
		}
	}
	return out, statsFrom(st, &rec), nil
}
