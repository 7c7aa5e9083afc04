// Package plan is the cost-based query planner: given the shape of one
// ring-constrained join request, metadata the index already carries (count,
// MBR, height — superblock fields for immutable indexes, live epoch state
// for mutable ones), and observed serving statistics, it picks the
// algorithm (INJ/OBJ/brute), parallelism and pair-predicate evaluation
// order from an estimate of the node accesses each strategy needs. It
// carries only what changes a decision: nothing is priced in time until a
// rule reads a price (ROADMAP item 6).
//
// The planner is equivalency-gated, mirroring janus-datalog's phase
// reordering: a plan choice may change the cost of a query, never its
// result set. Every algorithm in the family returns the identical pair set,
// predicate order is a conjunction reorder, and parallelism only changes
// emission order — so the planner is free to be wrong about cost without
// ever being wrong about answers. The randomized equivalence suite in rcj
// holds it to that.
package plan

import (
	"fmt"
	"math"
	"runtime"
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
	// MBR is the dataset bounding rectangle when HasMBR is set.
	MBR    geom.Rect
	HasMBR bool
	// Epoch is a live (epoch-layered) index's current sequence, carried so
	// a decision can be pinned to the state it planned against; 0 for an
	// immutable index.
	Epoch uint64
}

// Observed is runtime feedback from the serving stack. The zero value means
// "nothing observed yet" and yields conservative defaults.
type Observed struct {
	// FreeSlots describes scheduler pressure: parallel fan-out is pointless
	// when concurrent requests already saturate the CPUs.
	FreeSlots int
	// MaxProcs caps parallelism; 0 = runtime.GOMAXPROCS.
	MaxProcs int
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
	// Parallelism, when > 0, is caller-fixed; the planner echoes it.
	Parallelism int
}

// Decision is one resolved plan.
type Decision struct {
	Algorithm   core.Algorithm
	Parallelism int
	// PredicateOrder is the pair-predicate evaluation order, most selective
	// first. Empty when at most one predicate is set (nothing to reorder).
	PredicateOrder []core.Predicate
	// EstAccesses is the node-access estimate the strategy was chosen on.
	EstAccesses int64
	// Rule names the decision for humans and metrics ("tiny-brute",
	// "small-outer-inj", "default-obj", ...).
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
	// filtering them one at a time (INJ — the same filter on one-point
	// batches) costs about one leaf's bulk pass and skips its sibling
	// seeding. A batch-granularity choice, not a different filter.
	injMaxOuter = 48
	// parallelMinAccesses: fan a join out only when the estimated work
	// amortizes worker startup and emission locking.
	parallelMinAccesses = 5_000
	// defaultLeafCap approximates the R*-tree fanout when the superblock
	// does not say (4 KiB pages hold ~100 points; stay conservative).
	defaultLeafCap = 64
)

// Plan resolves one query. outer is the Q input (the side whose leaves
// drive the join), inner is P; for a self-join pass the same meta twice.
func Plan(req Request, outer, inner IndexMeta, obs Observed) Decision {
	d := Decision{
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
	d.Parallelism = parallelism(req, obs, d.EstAccesses)
	return d
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

// parallelism picks the worker count: the caller's when fixed, otherwise
// fanned out only when the estimated work amortizes it, the host has spare
// CPUs, and concurrent requests are not already using them.
func parallelism(req Request, obs Observed, estAccesses int64) int {
	if req.Parallelism > 0 {
		return req.Parallelism
	}
	procs := obs.MaxProcs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	if procs <= 1 || estAccesses < parallelMinAccesses {
		return 1
	}
	par := procs
	if par > 8 {
		par = 8
	}
	// Under concurrent load the scheduler's free slots are a better signal
	// of spare CPU than GOMAXPROCS.
	if obs.FreeSlots > 0 && obs.FreeSlots < par {
		par = obs.FreeSlots
	}
	if par < 1 {
		par = 1
	}
	return par
}
