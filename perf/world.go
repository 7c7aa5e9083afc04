package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
	"repro/rcj"
)

// Query classes. Every workload draws its operations from these; per-class
// medians are layer metrics.
const (
	classFull   = "full"   // unconstrained two-set join
	classSelf   = "self"   // unconstrained self-join
	classTopK   = "topk"   // TopK ranking (global, or inside a window when serving)
	classWindow = "window" // Region window streamed in full
	classMaxD   = "maxd"   // MaxDiameter-bounded window
	classWrite  = "write"  // mutation batch (serve_live only)
)

var classes = []string{classFull, classSelf, classTopK, classWindow, classMaxD, classWrite}

// op is one operation of a schedule: a query against named indexes, or a
// mutation batch. Only the predicate fields of qry are set; algorithm and
// parallelism stay with the planner.
type op struct {
	class string
	p, q  string // index names; q == "" means self-join of p
	qry   rcj.Query
	key   int // distinct-request id: ops with equal keys are the same request
	rep   int // dataset replica the indexes belong to (embedded workloads)

	ins []rcj.Point // classWrite
	del []int64
}

func (o op) self() bool { return o.q == "" }

// digest is the order-independent fingerprint of a result set: the pair
// count and the wrapping sum of a hash of each (p_id, q_id).
type digest struct {
	n int
	h uint64
}

func (d *digest) add(pid, qid int64) {
	d.n++
	d.h += mix(uint64(pid)*0x9E3779B97F4A7C15 ^ uint64(qid))
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func digestOf(pairs []rcj.Pair) digest {
	var d digest
	for _, pr := range pairs {
		d.add(pr.P.ID, pr.Q.ID)
	}
	return d
}

// Datasets: the paper's synthetic families.

func toPoints(es []rtree.PointEntry) []rcj.Point {
	out := make([]rcj.Point, len(es))
	for i, e := range es {
		out[i] = rcj.Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
	}
	return out
}

func toEntries(ps []rcj.Point) []rtree.PointEntry {
	out := make([]rtree.PointEntry, len(ps))
	for i, p := range ps {
		out[i] = rtree.PointEntry{P: geom.Point{X: p.X, Y: p.Y}, ID: p.ID}
	}
	return out
}

// uniformSet is the ISSUE's Un.
func uniformSet(n int, seed int64) []rcj.Point { return toPoints(workload.Uniform(n, seed)) }

// gaussSet is the ISSUE's Gn with the samples the generator clamps onto the
// domain's edges left out (about one in seven; more are drawn to make up n)
// and ids renumbered 0..n-1. Clamped samples pile up on four lines, where
// two of them can lie 1e-4 apart inside a zero-height MBR, and there the
// verification face rule drops a true pair (see README, "A wrong answer the
// benchmark found"): trees of different shape then disagree, and a benchmark
// must run on inputs on which no operation fails.
func gaussSet(n int, seed int64) []rcj.Point {
	out := make([]rcj.Point, 0, n)
	seen := 0 // samples of the draw already looked at
	for draw := n + n/3 + 64; ; draw *= 2 {
		// A longer draw from the same seed extends the shorter one.
		for _, e := range workload.GaussianClusters(draw, 10, 1000, seed+1)[seen:] {
			seen++
			if e.P.X > 0 && e.P.X < workload.Domain && e.P.Y > 0 && e.P.Y < workload.Domain {
				out = append(out, rcj.Point{X: e.P.X, Y: e.P.Y, ID: int64(len(out))})
				if len(out) == n {
					return out
				}
			}
		}
	}
}

// scaled shrinks a cardinality for the smoke test, keeping enough points
// for a multi-level tree.
func scaled(n int, scale float64) int {
	m := int(float64(n) * scale)
	if m < 64 {
		m = 64
	}
	return m
}

// window returns a square of the given side centred on c, clipped to the
// domain.
func window(c rcj.Point, side float64) *rcj.Rect {
	h := side / 2
	r := rcj.Rect{MinX: c.X - h, MinY: c.Y - h, MaxX: c.X + h, MaxY: c.Y + h}
	if r.MinX < 0 {
		r.MinX = 0
	}
	if r.MinY < 0 {
		r.MinY = 0
	}
	if r.MaxX > workload.Domain {
		r.MaxX = workload.Domain
	}
	if r.MaxY > workload.Domain {
		r.MaxY = workload.Domain
	}
	return &r
}

// reference answers "what must this query return" from one master result
// per index pair, computed once by a sequential forced-OBJ RunCollect (or by
// the index-free brute force for the oracle leg): the pushdown contract says
// every query equals the master post-filtered by Query.Matches, then ranked
// and truncated for TopK.
type reference struct {
	masters map[string][]rcj.Pair // by p+"|"+q
	memo    map[int]digest        // by op.key
	// bound, when > 0, is a diameter bound the serving path applies to
	// every query on top of the query's own (the shard manifest's).
	bound float64
}

func newReference() *reference {
	return &reference{masters: map[string][]rcj.Pair{}, memo: map[int]digest{}}
}

func masterKey(p, q string) string { return p + "|" + q }

// addMaster computes the master for (p, q) through the engine. bound, when
// > 0, is the largest MaxDiameter any query of the pair uses (the shard
// manifest's bound): pairs wider than it can never be asked for.
func (r *reference) addMaster(eng *rcj.Engine, pn, qn string, p, q *rcj.Index, bound float64) error {
	qry := rcj.Query{Algorithm: rcj.OBJ, ForceAlgorithm: true, Parallelism: 1, MaxDiameter: bound}
	var (
		pairs []rcj.Pair
		err   error
	)
	if q == nil {
		pairs, _, err = eng.RunSelfCollect(context.Background(), p, qry)
	} else {
		pairs, _, err = eng.RunCollect(context.Background(), q, p, qry)
	}
	if err != nil {
		return fmt.Errorf("reference %s x %s: %w", pn, qn, err)
	}
	rcj.SortPairsByDiameter(pairs)
	r.masters[masterKey(pn, qn)] = pairs
	return nil
}

// addBruteMaster is addMaster by core.BruteForcePairs: shares nothing with
// the tree code but the containment predicate.
func (r *reference) addBruteMaster(pn, qn string, p, q []rcj.Point) {
	var cps []core.Pair
	if q == nil {
		e := toEntries(p)
		cps = core.BruteForcePairs(e, e, true)
	} else {
		cps = core.BruteForcePairs(toEntries(p), toEntries(q), false)
	}
	pairs := make([]rcj.Pair, len(cps))
	for i, cp := range cps {
		pairs[i] = rcj.Pair{
			P:      rcj.Point{X: cp.P.P.X, Y: cp.P.P.Y, ID: cp.P.ID},
			Q:      rcj.Point{X: cp.Q.P.X, Y: cp.Q.P.Y, ID: cp.Q.ID},
			Center: rcj.Point{X: cp.Circle.Center.X, Y: cp.Circle.Center.Y},
			Radius: cp.Circle.Radius,
		}
	}
	rcj.SortPairsByDiameter(pairs)
	r.masters[masterKey(pn, qn)] = pairs
}

// expect returns the digest the operation's answer must have.
func (r *reference) expect(o op) digest {
	if d, ok := r.memo[o.key]; ok {
		return d
	}
	var d digest
	// The master is sorted by (radius, P.ID, Q.ID) — the engine's ranking —
	// so TopK is the first k matches.
	for _, pr := range r.masters[masterKey(o.p, o.q)] {
		if !o.qry.Matches(pr) || (r.bound > 0 && pr.Diameter() > r.bound) {
			continue
		}
		d.add(pr.P.ID, pr.Q.ID)
		if o.qry.TopK > 0 && d.n == o.qry.TopK {
			break
		}
	}
	r.memo[o.key] = d
	return d
}

// zipf draws ranks 0..n-1 with probability proportional to (rank+1)^-s, for
// exponents at or below 1, which math/rand's Zipf cannot do.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var t float64
	for i := range z.cum {
		t += math.Pow(float64(i+1), -s)
		z.cum[i] = t
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}
