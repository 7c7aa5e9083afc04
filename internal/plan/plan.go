// Package plan is the cost-based query planner: given the shape of one
// ring-constrained join request, metadata the index already carries (count,
// MBR, height — superblock fields for immutable indexes, live epoch state
// for mutable ones), it picks the algorithm (Gabriel/INJ/OBJ/brute) and
// pair-predicate evaluation order from an estimate of the node accesses each strategy
// needs. It carries only what changes a decision: nothing is priced in
// time until a rule reads a price (ROADMAP item 6).
//
// The planner is equivalency-gated, mirroring janus-datalog's phase
// reordering: a plan choice may change the cost of a query, never its
// result set. Every algorithm in the family returns the identical pair set
// and predicate order is a conjunction reorder — so the planner is free to be wrong about cost without
// ever being wrong about answers. The randomized equivalence suite in rcj
// holds it to that.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
)

// IndexMeta describes one join input from metadata already on hand — no
// page is read to plan. For a mutable index the fields must come from the
// live epoch layer (LiveStats), not the sealed superblock: the delta makes
// the superblock count stale the moment a batch lands.
type IndexMeta struct {
	// Count is the number of indexed points (the live count for mutable
	// indexes).
	Count int
	// Height is the R-tree level count; 0 = unknown (estimated from Count).
	Height int
	// LeafCap is the leaf-node entry capacity; 0 = unknown (default used).
	LeafCap int
	// Pages is the index's page count; 0 = unknown (estimated from Count).
	Pages int
	// MBR is the dataset bounding rectangle when HasMBR is set.
	MBR    geom.Rect
	HasMBR bool
	// Epoch is a live (epoch-layered) index's current sequence, carried so
	// a decision can be pinned to the state it planned against; 0 for an
	// immutable index.
	Epoch uint64
	// Live marks a mutable index, whose epoch may still read 0 before its
	// first batch.
	Live bool
}

// Request is the predicate shape of the query being planned.
type Request struct {
	MaxDiameter float64
	MinDistance float64
	Region      *geom.Rect
	TopK        int
	// Weighted marks a school-bus query: TopK re-ranked by combined
	// endpoint weight, so the diameter bound does not tighten dynamically
	// and is ranked as the static predicate it is.
	Weighted bool
	// Limit, when > 0, caps the pair count.
	Limit int
	// SelfJoin marks the join of one index with itself (outer and inner
	// are the same input), whose pages a scan reads once.
	SelfJoin bool
}

// Decision is one resolved plan.
type Decision struct {
	Algorithm core.Algorithm
	// Parallelism is always 1: every join runs on its caller's goroutine.
	// The plan string and the /join summary still report it.
	//
	// Deprecated: kept only because the frozen benchmark reads it
	// (perf/micro.go:161); it goes with the next benchmark PR.
	Parallelism int
	// PredicateOrder is the pair-predicate evaluation order, most selective
	// first. Empty when at most one predicate is set (nothing to reorder).
	PredicateOrder []core.Predicate
	// EstAccesses is the node-access estimate the strategy was chosen on.
	EstAccesses int64
	// Rule names the decision for humans and metrics ("tiny-brute",
	// "unbounded-gabriel", "small-outer-inj", "default-obj", ...).
	Rule string
	// Epochs pins the live epochs the decision planned against (outer,
	// inner); zero for immutable inputs.
	Epochs [2]uint64
}

// String renders the decision for per-request summaries.
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s par=%d rule=%s", d.Algorithm, d.Parallelism, d.Rule)
	if len(d.PredicateOrder) > 0 {
		b.WriteString(" order=")
		for _, p := range d.PredicateOrder {
			switch p {
			case core.PredDiameter:
				b.WriteByte('d')
			case core.PredMinDistance:
				b.WriteByte('m')
			case core.PredRegion:
				b.WriteByte('r')
			}
		}
	}
	fmt.Fprintf(&b, " est_accesses=%d", d.EstAccesses)
	return b.String()
}

// Planning thresholds. These pick between strategies whose result sets are
// identical, so they only need to be roughly right; the estimates below
// carry the fine-grained comparison.
const (
	// bruteMaxWork: below this many point comparisons the quadratic
	// baseline beats any tree machinery (no heap, no node decode).
	bruteMaxWork = 64 * 64
	// injMaxOuter: with at most this many effective outer points,
	// filter them one at a time (INJ — the same filter on one-point
	// batches). A batch-granularity choice, not a different filter: so few
	// points usually span leaves far wider than their spacing, whose bulk
	// pass from one centroid scans most of the inner tree. Measured on 48
	// points scattered over a uniform 20k inner, unconstrained (2-CPU Xeon
	// VM, see README): INJ 2.6 ms vs OBJ 30 ms; packed into 1/400 of the
	// domain the order flips (2.3 vs 1.1 ms). OBJ's Lemma-5 seeding, once
	// part of the argument, is paid only per probed point.
	injMaxOuter = 48
	// defaultLeafCap approximates the R*-tree fanout when the superblock
	// does not say (4 KiB pages hold ~100 points; stay conservative).
	defaultLeafCap = 64
	// gabrielMaxPoints caps the points the Gabriel path triangulates in
	// memory at a 64 MiB budget per join, at core.GabrielPointBytes a point
	// (~335k points). Larger unconstrained joins stay on OBJ, which holds
	// one leaf at a time.
	gabrielMaxPoints = 64 << 20 / core.GabrielPointBytes
)

// Plan resolves one query. outer is the Q input (the side whose leaves
// drive the join), inner is P; for a self-join pass the same meta twice
// and set req.SelfJoin. Only Euclidean joins are planned: an L1 query has
// one filter strategy and pins its plan (rcj.Query.ResolvePlan).
func Plan(req Request, outer, inner IndexMeta) Decision {
	d := Decision{
		Parallelism:    1,
		Epochs:         [2]uint64{outer.Epoch, inner.Epoch},
		PredicateOrder: predicateOrder(req, outer, inner),
	}

	nQ, nP := outer.Count, inner.Count
	sel := regionSelectivity(req.Region, outer)
	effOuter := int(math.Ceil(float64(nQ) * sel))

	switch {
	case nQ*nP <= bruteMaxWork:
		d.Algorithm = core.AlgBrute
		d.Rule = "tiny-brute"
		d.EstAccesses = int64(nQ+nP) / defaultLeafCap // leaf scans only
	case gabriel(req, outer, inner):
		// An unconstrained join over sealed inputs is the Gabriel graph of
		// P ∪ Q: one scan of each tree and one triangulation, 4-8x less CPU
		// than OBJ at 3k-100k per side, reading each page once where OBJ
		// reads 10-15x as many (ROADMAP items 3 and 16). It is exactly
		// priced: a scan reads every page of each input once.
		d.Algorithm = core.AlgGabriel
		d.Rule = "unbounded-gabriel"
		d.EstAccesses = pages(inner)
		if !req.SelfJoin {
			d.EstAccesses += pages(outer)
		}
	case effOuter <= injMaxOuter:
		d.Algorithm = core.AlgINJ
		d.Rule = "small-outer-inj"
		d.EstAccesses = int64(effOuter) * int64(height(inner)+2)
	default:
		// OBJ dominates BIJ in every measured configuration (the paper's
		// Lemma 5 symmetric pruning is nearly free and always helps), so
		// BIJ is reachable only by forcing.
		d.Algorithm = core.AlgOBJ
		d.Rule = "default-obj"
		lq := int64(leaves(outer))
		if sel < 1 {
			lq = int64(math.Ceil(float64(lq) * sel))
			d.Rule = "region-pruned-obj"
		}
		// Per outer leaf the bulk filter descends the inner tree and touches
		// a handful of its leaves (height + a fringe of siblings).
		d.EstAccesses = nodes(outer) + lq*int64(height(inner)+6)
	}
	return d
}

// gabriel reports whether the Gabriel path answers the request: no
// predicate, ranking or limit, both inputs sealed (live inputs stay on the
// R-tree, which their delta and tombstones are served through), few enough
// points to triangulate in memory, and, when the metadata carries the
// inputs' MBRs, coordinates narrow enough to triangulate.
func gabriel(req Request, outer, inner IndexMeta) bool {
	if req.MaxDiameter != 0 || req.MinDistance != 0 || req.Region != nil || req.TopK != 0 || req.Limit != 0 || req.Weighted {
		return false
	}
	if outer.Live || inner.Live {
		return false
	}
	if outer.HasMBR && inner.HasMBR && !core.GabrielFits(outer.MBR.Union(inner.MBR)) {
		return false
	}
	n := inner.Count
	if !req.SelfJoin {
		n += outer.Count
	}
	return n <= gabrielMaxPoints
}

// pages returns the input's page count, or its estimated node count when
// the metadata does not carry it.
func pages(m IndexMeta) int64 {
	if m.Pages > 0 {
		return int64(m.Pages)
	}
	return nodes(m)
}

// leaves estimates the leaf count of one input.
func leaves(m IndexMeta) int {
	cap := m.LeafCap
	if cap <= 0 {
		cap = defaultLeafCap
	}
	if m.Count <= 0 {
		return 0
	}
	return (m.Count + cap - 1) / cap
}

// nodes estimates the total node count: the leaf level plus a geometric
// series of internal levels (fanout ≈ leaf capacity).
func nodes(m IndexMeta) int64 {
	l := leaves(m)
	if l <= 1 {
		return int64(l)
	}
	cap := m.LeafCap
	if cap <= 1 {
		cap = defaultLeafCap
	}
	return int64(math.Ceil(float64(l) * float64(cap) / float64(cap-1)))
}

// height returns the input's tree height, estimating log_fanout(count) when
// the metadata does not carry it (mutable indexes: the delta has no fixed
// height).
func height(m IndexMeta) int {
	if m.Height > 0 {
		return m.Height
	}
	if m.Count <= 1 {
		return 1
	}
	cap := m.LeafCap
	if cap <= 1 {
		cap = defaultLeafCap
	}
	return int(math.Ceil(math.Log(float64(m.Count))/math.Log(float64(cap)))) + 1
}

// regionSelectivity estimates the fraction of the outer input a Region
// window leaves reachable: the area fraction of the window's intersection
// with the dataset MBR, widened to account for pair centers falling between
// datasets. 1 when there is no window or no MBR to judge against.
func regionSelectivity(r *geom.Rect, m IndexMeta) float64 {
	if r == nil || !m.HasMBR {
		return 1
	}
	mw, mh := m.MBR.MaxX-m.MBR.MinX, m.MBR.MaxY-m.MBR.MinY
	if mw <= 0 || mh <= 0 {
		return 1
	}
	ix := math.Max(0, math.Min(r.MaxX, m.MBR.MaxX)-math.Max(r.MinX, m.MBR.MinX))
	iy := math.Max(0, math.Min(r.MaxY, m.MBR.MaxY)-math.Max(r.MinY, m.MBR.MinY))
	// Centers are midpoints: a point up to half the window size outside the
	// window can still pair into it, so widen the qualifying strip.
	frac := ((ix + mw/8) / mw) * ((iy + mh/8) / mh)
	return math.Min(1, frac)
}

// predicateOrder ranks the pair predicates most-selective-first. The
// estimates are crude — what matters is putting a sharp Region window or a
// tight diameter bound ahead of a weak MinDistance floor; any order is
// result-identical.
func predicateOrder(req Request, outer, inner IndexMeta) []core.Predicate {
	type ranked struct {
		p   core.Predicate
		sel float64
	}
	var preds []ranked
	extent := extentOf(outer, inner)
	n := 0
	if req.MaxDiameter > 0 || req.TopK > 0 {
		sel := 0.5
		if req.MaxDiameter > 0 && extent > 0 {
			f := req.MaxDiameter / extent
			sel = math.Min(1, f*f)
		}
		if req.TopK > 0 && !req.Weighted {
			// The dynamic bound tightens toward the k nearest pairs —
			// treat as highly selective once warmed.
			sel = math.Min(sel, 0.1)
		}
		preds = append(preds, ranked{core.PredDiameter, sel})
		n++
	}
	if req.MinDistance > 0 {
		sel := 0.9 // drops only trivially-tight pairs in most datasets
		if extent > 0 {
			f := req.MinDistance / extent
			sel = math.Max(0.1, 1-math.Min(1, f*f))
		}
		preds = append(preds, ranked{core.PredMinDistance, sel})
		n++
	}
	if req.Region != nil {
		preds = append(preds, ranked{core.PredRegion, regionSelectivity(req.Region, outer)})
		n++
	}
	if n < 2 {
		return nil // one predicate (or none): nothing to reorder
	}
	sort.SliceStable(preds, func(a, b int) bool { return preds[a].sel < preds[b].sel })
	out := make([]core.Predicate, len(preds))
	for i, p := range preds {
		out[i] = p.p
	}
	return out
}

// extentOf returns the larger side of the combined MBR, the length scale
// distance predicates are judged against. 0 = unknown.
func extentOf(a, b IndexMeta) float64 {
	e := 0.0
	for _, m := range []IndexMeta{a, b} {
		if !m.HasMBR {
			continue
		}
		e = math.Max(e, math.Max(m.MBR.MaxX-m.MBR.MinX, m.MBR.MaxY-m.MBR.MinY))
	}
	return e
}
