package roadnet

import (
	"container/heap"
	"context"
	"math"

	"repro/internal/geom"
)

// coverTol mirrors geom.CoverTol for the closed network ball.
const coverTol = geom.CoverTol

// PointRef is one dataset point: a caller id and the node it sits on.
// Several points (from either dataset) may share a node.
type PointRef struct {
	ID   int64
	Node NodeID
}

// Pair is one network-RCJ result: the matched points, their network
// distance, and the ball describing the fair middleman stretch of road —
// Center is equidistant (Radius = Dist/2) from both endpoints along the
// network.
type Pair struct {
	P, Q   PointRef
	Dist   float64
	Center BallCenter
	Radius float64
}

// Stats reports the work a network join did.
type Stats struct {
	Candidates     int64 // pairs entering verification
	Results        int64
	SettledNodes   int64 // Dijkstra settlements in the filter step
	VerifyDijkstra int64 // bounded Dijkstra runs in verification
}

// Join computes the network ring-constrained join of P and Q over g: all
// pairs whose network ball covers no other point of P ∪ Q.
func Join(g *Graph, P, Q []PointRef) ([]Pair, Stats, error) {
	return JoinContext(context.Background(), g, P, Q, nil)
}

// JoinContext is Join under a context. When onPair is non-nil the join
// streams each confirmed pair to it and returns a nil slice (nothing is
// accumulated — the streaming mode exists to avoid holding the result set);
// otherwise the full slice is returned. The outer loop checks ctx once per
// query point and aborts with ctx.Err() when cancelled.
func JoinContext(ctx context.Context, g *Graph, P, Q []PointRef, onPair func(Pair)) ([]Pair, Stats, error) {
	j := &netJoiner{
		g:   g,
		pAt: groupByNode(P),
		qAt: groupByNode(Q),
	}
	var out []Pair
	for _, q := range Q {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return nil, j.stats, ctx.Err()
			default:
			}
		}
		pairs, err := j.joinOne(q)
		if err != nil {
			return nil, j.stats, err
		}
		j.stats.Results += int64(len(pairs))
		if onPair != nil {
			for _, p := range pairs {
				onPair(p)
			}
			continue
		}
		out = append(out, pairs...)
	}
	return out, j.stats, nil
}

// BruteForce is the oracle: every pair of the cross product is ball-tested
// with exact shortest paths. Exponentially simpler than Join and
// independent of the pruning logic.
func BruteForce(g *Graph, P, Q []PointRef) []Pair {
	pAt, qAt := groupByNode(P), groupByNode(Q)
	j := &netJoiner{g: g, pAt: pAt, qAt: qAt}
	var out []Pair
	for _, q := range Q {
		for _, p := range P {
			pair, ok := j.verifyPair(p, q)
			if ok {
				out = append(out, pair)
			}
		}
	}
	return out
}

func groupByNode(pts []PointRef) map[NodeID][]PointRef {
	m := make(map[NodeID][]PointRef)
	for _, p := range pts {
		m[p.Node] = append(m[p.Node], p)
	}
	return m
}

type netJoiner struct {
	g     *Graph
	pAt   map[NodeID][]PointRef
	qAt   map[NodeID][]PointRef
	stats Stats
}

// joinOne runs the filter and verification for one outer point q.
func (j *netJoiner) joinOne(q PointRef) ([]Pair, error) {
	cands := j.filter(q)
	j.stats.Candidates += int64(len(cands))
	var out []Pair
	for _, p := range cands {
		pair, ok := j.verifyPair(p, q)
		if ok {
			out = append(out, pair)
		}
	}
	return out, nil
}

// filter expands Dijkstra from q's node and returns the P points not pruned
// by the network Lemma 1 analogue: a point whose shortest path from q
// passes through a node hosting an earlier candidate is skipped, and covered
// branches are not expanded (the expansion's distances then over-estimate
// for covered detours, which can only admit extra candidates — verification
// is exact).
func (j *netJoiner) filter(q PointRef) []PointRef {
	n := j.g.NumNodes()
	settled := make([]bool, n)
	covered := make([]bool, n)
	candAt := make([]bool, n)
	var cands []PointRef

	h := pq{{dist: 0, node: q.Node, parent: -1}}
	heap.Init(&h)
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if settled[it.node] {
			continue
		}
		settled[it.node] = true
		j.stats.SettledNodes++
		// Covered nodes are never expanded, so a settled node's parent is
		// always uncovered; coverage reduces to "parent hosts a candidate".
		cov := it.parent >= 0 && candAt[it.parent]
		covered[it.node] = cov
		if cov {
			// Everything beyond this node is pruned: either its true
			// shortest path runs through the candidate (triangle equality —
			// the network Lemma 1), or a covered node on its true path can
			// be rerouted through the candidate with equal length, giving
			// the same certificate.
			continue
		}
		if ps := j.pAt[it.node]; len(ps) > 0 {
			cands = append(cands, ps...)
			candAt[it.node] = true
		}
		for _, e := range j.g.adj[it.node] {
			if !settled[e.To] {
				heap.Push(&h, pqItem{dist: it.dist + e.W, node: e.To, parent: it.node})
			}
		}
	}
	return cands
}

// verifyPair computes the exact shortest path, ball center and radius for
// <p, q> and checks the closed ball for foreign points.
func (j *netJoiner) verifyPair(p, q PointRef) (Pair, bool) {
	dist, path, ok := j.g.ShortestPath(q.Node, p.Node, math.Inf(1))
	if !ok {
		return Pair{}, false // disconnected: no ball exists
	}
	center := j.g.midpointOnPath(path, dist)
	radius := dist / 2
	j.stats.VerifyDijkstra++
	nodeDist := j.g.DistancesFromCenter(center, radius*(1+coverTol)+1e-12)
	limit := radius * (1 + coverTol)
	for node, d := range nodeDist {
		if math.IsInf(d, 1) || d > limit {
			continue
		}
		for _, other := range j.pAt[NodeID(node)] {
			if other.ID != p.ID {
				return Pair{}, false
			}
		}
		for _, other := range j.qAt[NodeID(node)] {
			if other.ID != q.ID {
				return Pair{}, false
			}
		}
	}
	return Pair{P: p, Q: q, Dist: dist, Center: center, Radius: radius}, true
}
