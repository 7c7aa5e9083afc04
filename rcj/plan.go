package rcj

import "repro/internal/plan"

// This file connects queries to the cost-based planner (internal/plan). A
// Query whose Algorithm is the zero value without ForceAlgorithm means
// "planner decides": resolving turns it into a concrete, forced query — so
// cache keys and the executor both see the resolved plan — and
// returns the Decision for reporting. A request is planned once: the
// resolved query carries its decision, and every later resolve returns it.

// PlanDecision is one resolved query plan (see internal/plan.Decision).
type PlanDecision = plan.Decision

// Resolve is ResolvePlan; self is ignored, the join shape being qx == px.
//
// Deprecated: kept only because the frozen benchmark names it
// (perf/micro.go:160); it goes with the next benchmark PR.
func (q Query) Resolve(qx, px *Index, self bool) (Query, PlanDecision) {
	return q.ResolvePlan(qx, px)
}

// ResolvePlan resolves the query against the two join inputs (the same
// index twice for a self-join). When the query pins its plan —
// ForceAlgorithm, an explicit non-zero Algorithm, or the L1 metric with its
// one index-nested-loop filter — the fixed plan is echoed verbatim (rule
// "fixed"); otherwise the planner picks algorithm and predicate order from
// the inputs' metadata (epoch-aware for mutable indexes: the live point
// count, not the sealed superblock's). The returned query is marked ForceAlgorithm so Canonical()
// sees the concrete plan, and carries the decision: resolving
// it again returns the same decision, whatever the arguments. PlanOut, when
// set, receives the decision. An invalid query is returned as it came, for
// the executor to refuse.
func (q Query) ResolvePlan(qx, px *Index) (Query, PlanDecision) {
	if q.plan != nil {
		return q, *q.plan
	}
	if q.Validate() != nil {
		return q, PlanDecision{}
	}
	var dec PlanDecision
	if q.ForceAlgorithm || q.Algorithm != INJ || q.Metric == L1 {
		dec = PlanDecision{
			Algorithm:   q.algorithm(),
			Parallelism: 1,
			Rule:        "fixed",
			Epochs:      [2]uint64{qx.Epoch(), px.Epoch()},
		}
	} else {
		req := plan.Request{
			MaxDiameter: q.MaxDiameter,
			MinDistance: q.MinDistance,
			TopK:        q.TopK,
			Weighted:    q.Weight != nil,
			Limit:       q.Limit,
			SelfJoin:    selfJoin(qx, px),
		}
		if q.Region != nil {
			r := q.Region.geom()
			req.Region = &r
		}
		dec = plan.Plan(req, qx.planMeta(), px.planMeta())
		q.Algorithm = dec.Algorithm
	}
	q.ForceAlgorithm = true
	q.plan = &dec
	if q.PlanOut != nil {
		*q.PlanOut = dec
	}
	return q, dec
}

// planMeta assembles this index's planner metadata without reading data
// pages. Mutable indexes answer from the live epoch layer — LiveStats, not
// the sealed superblock, whose count goes stale the moment a delta batch
// lands — and carry their epoch so the decision is pinned to the state it
// planned against.
func (ix *Index) planMeta() plan.IndexMeta {
	if ls, ok := ix.LiveStats(); ok {
		return plan.IndexMeta{Count: ls.Points, Epoch: ls.Seq, Live: true}
	}
	m := plan.IndexMeta{Count: ix.pts}
	if ix.tree != nil {
		m.Count = ix.tree.Size()
		m.Height = ix.tree.Height()
		m.LeafCap = ix.tree.LeafCap()
		m.Pages = ix.tree.NumPages()
		ix.planMBROnce.Do(func() {
			if mbr, err := ix.tree.RootMBR(); err == nil {
				ix.planMBR = mbr
				ix.planMBROK = true
			}
		})
		if ix.planMBROK {
			m.MBR = ix.planMBR
			m.HasMBR = true
		}
	}
	return m
}
