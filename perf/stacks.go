package main

import (
	"context"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/rcj"
)

// coreStack is the bottom of the traced run: index files opened through
// public constructors with the harness's wrappers at the seams
// (storage.OpenIndexFile -> timing Pager -> rtree.Open -> timing
// SpatialIndex -> core.JoinContext). With a nil tracer the same stack is
// assembled bare: the untraced twin that prices the wrappers.
type coreStack struct {
	pools  []*buffer.Pool
	pagers []storage.Pager
	views  map[string]core.SpatialIndex
	t      *tracer
}

// openCoreStack opens the named index files; each group shares one buffer
// pool of poolPages pages (0: unbounded), as the indexes of one engine do.
func openCoreStack(files map[string]string, groups [][]string, backend storage.Backend, poolPages, poolShards int, t *tracer) (*coreStack, error) {
	if poolPages <= 0 {
		poolPages = -1
	}
	cs := &coreStack{views: map[string]core.SpatialIndex{}, t: t}
	for _, names := range groups {
		pool := buffer.NewShardedPool(poolPages, poolShards)
		cs.pools = append(cs.pools, pool)
		for i, name := range names {
			pager, sb, err := storage.OpenIndexFile(files[name], backend)
			if err != nil {
				cs.close()
				return nil, err
			}
			cs.pagers = append(cs.pagers, pager)
			if t != nil {
				pager = &tracedPager{Pager: pager, t: t}
			}
			tree, err := rtree.Open(pager, pool, rtree.Config{PageSize: sb.PageSize, Owner: uint32(i + 1)},
				rtree.Meta{Root: sb.Root, Height: sb.Height, Size: int(sb.Count)})
			if err != nil {
				cs.close()
				return nil, err
			}
			if t != nil {
				cs.views[name] = &tracedIndex{tree: tree, t: t}
			} else {
				cs.views[name] = tree
			}
		}
	}
	return cs, nil
}

func (cs *coreStack) close() {
	for _, p := range cs.pagers {
		p.Close()
	}
	cs.pagers = nil
}

// run executes o through core.JoinContext with the plan the engine resolved
// for it, sequentially, and returns the elapsed milliseconds.
func (cs *coreStack) run(ctx context.Context, o op, dec rcj.PlanDecision, skipVerify bool) (float64, digest, core.Stats, error) {
	var d digest
	co := core.Options{
		SelfJoin:         o.self(),
		SkipVerification: skipVerify,
		Parallelism:      1,
		MaxDiameter:      o.qry.MaxDiameter,
		MinDistance:      o.qry.MinDistance,
		TopK:             o.qry.TopK,
		Limit:            o.qry.Limit,
		PredicateOrder:   dec.PredicateOrder,
		OnPair:           func(p core.Pair) { d.add(p.P.ID, p.Q.ID) },
	}
	// Never the harness's choice: the algorithm is the one the planner
	// resolved when the same query went through Engine.Run (PlanOut).
	co.Algorithm = dec.Algorithm
	if r := o.qry.Region; r != nil {
		co.Region = &geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	tp := cs.views[o.p]
	tq := tp
	if !o.self() {
		tq = cs.views[o.q]
	}
	t0 := time.Now()
	var s int32
	if cs.t != nil {
		s = cs.t.begin(spanCore)
	}
	_, st, err := core.JoinContext(ctx, tq, tp, co)
	if cs.t != nil {
		cs.t.end(s)
	}
	return time.Since(t0).Seconds() * 1e3, d, st, err
}

// tracedReps is how often each depth of a traced run times its pass. The
// per-operation minimum is kept: a depth's time is compared with another
// depth's, and one collection or scheduling hiccup in either would
// otherwise land in a layer's self time.
const tracedReps = 2

// interleavedPasses runs the pass through every depth: once untimed, then
// tracedReps times timed, the depths taking turns on each operation. It
// returns, per depth, each operation's fastest time in milliseconds.
// beforeTimed runs between the untimed and the timed passes.
func interleavedPasses(ops []op, depths []func(int, op) (float64, error), beforeTimed func()) ([][]float64, error) {
	best := make([][]float64, len(depths))
	for rep := -1; rep < tracedReps; rep++ {
		if rep == 0 {
			beforeTimed()
		}
		for i, o := range ops {
			for d, run := range depths {
				ms, err := run(i, o)
				if err != nil {
					return nil, err
				}
				switch {
				case rep == 0:
					best[d] = append(best[d], ms)
				case rep > 0:
					best[d][i] = min(best[d][i], ms)
				}
			}
		}
	}
	return best, nil
}
