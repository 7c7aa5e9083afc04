// Package rcjnet is the public API of the road-network ring-constrained
// join — the generalization of RCJ to shortest-path distance that the paper
// proposes as future work (Section 6).
//
// Points live on the nodes of an undirected weighted road graph. A pair
// <p, q> qualifies when the network ball — centered at the midpoint of a
// shortest p–q path with radius half the path length — contains no other
// point of either dataset. The ball center is the fair middleman location
// in driving distance: equidistant from p and q along the roads.
//
//	g := rcjnet.NewGraph(numIntersections)
//	g.AddRoad(a, b, lengthMeters)
//	pairs, _, _ := rcjnet.Join(g, cinemas, restaurants)
package rcjnet

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"

	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/stream"
	"repro/internal/topk"
)

// NodeID identifies a road-graph node (an intersection).
type NodeID = roadnet.NodeID

// Point is a dataset point: a caller-assigned id and the node it sits on.
// IDs must be unique within one dataset.
type Point struct {
	ID   int64
	Node NodeID
}

// Graph is an undirected weighted road network.
type Graph struct {
	g *roadnet.Graph
}

// NewGraph returns a road network with n isolated intersections.
func NewGraph(n int) (*Graph, error) {
	g, err := roadnet.NewGraph(n, nil)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// NewEmbeddedGraph returns a road network whose intersections carry 2D
// coordinates (used only for Locate/visualization; join semantics are
// purely metric).
func NewEmbeddedGraph(coords [][2]float64) (*Graph, error) {
	pos := make([]geom.Point, len(coords))
	for i, c := range coords {
		pos[i] = geom.Point{X: c[0], Y: c[1]}
	}
	g, err := roadnet.NewGraph(len(coords), pos)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// AddRoad adds an undirected road of the given positive length between two
// intersections.
func (gr *Graph) AddRoad(a, b NodeID, length float64) error {
	return gr.g.AddEdge(a, b, length)
}

// NumNodes returns the number of intersections.
func (gr *Graph) NumNodes() int { return gr.g.NumNodes() }

// Distance returns the shortest-path distance between two intersections
// (ok is false when disconnected).
func (gr *Graph) Distance(a, b NodeID) (float64, bool) {
	d, _, ok := gr.g.ShortestPath(a, b, math.Inf(1))
	return d, ok
}

// Pair is one network-RCJ result. Stand describes the middleman location:
// it lies on the road from StandU toward StandV, StandOffset along it; for
// a location exactly at an intersection StandU == StandV. WalkEach is the
// network distance from the stand to each of the two points.
type Pair struct {
	P, Q        Point
	NetworkDist float64
	StandU      NodeID
	StandV      NodeID
	StandOffset float64
	WalkEach    float64
}

// Stats reports the work a network join performed.
type Stats struct {
	Candidates   int64
	Results      int64
	SettledNodes int64
}

// Join computes the network ring-constrained join of datasets P and Q over
// the road graph.
func Join(gr *Graph, P, Q []Point) ([]Pair, Stats, error) {
	return JoinContext(context.Background(), gr, P, Q)
}

// JoinContext is Join under a context: a cancelled ctx aborts the join
// between query points and returns ctx.Err().
func JoinContext(ctx context.Context, gr *Graph, P, Q []Point) ([]Pair, Stats, error) {
	pRefs, err := toRefs(gr, P)
	if err != nil {
		return nil, Stats{}, err
	}
	qRefs, err := toRefs(gr, Q)
	if err != nil {
		return nil, Stats{}, err
	}
	raw, st, err := roadnet.JoinContext(ctx, gr.g, pRefs, qRefs, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]Pair, len(raw))
	for i, p := range raw {
		out[i] = fromRoadnetPair(p)
	}
	return out, Stats{Candidates: st.Candidates, Results: st.Results, SettledNodes: st.SettledNodes}, nil
}

// JoinSeq streams the network join as an iterator, mirroring
// rcj.Engine.Run: pairs are yielded as the join confirms them, cancelling
// ctx (or breaking out of the loop) aborts the join promptly, and no
// goroutine outlives the range loop.
func JoinSeq(ctx context.Context, gr *Graph, P, Q []Point) iter.Seq2[Pair, error] {
	return Run(ctx, gr, P, Q, Query{})
}

// Query constrains a network join, mirroring rcj.Query for the road-network
// metric. Predicates are pushed into the join's Dijkstra expansions: a
// distance bound stops each frontier early, and a TopK query tightens that
// bound as better pairs are found (branch-and-bound).
type Query struct {
	// MaxNetworkDist, when > 0, keeps only pairs within this shortest-path
	// distance of each other.
	MaxNetworkDist float64
	// TopK, when > 0, returns only the k closest pairs by network distance
	// (ties broken by ascending P.ID then Q.ID), in ascending order,
	// yielded together when the traversal completes.
	TopK int
	// Limit, when > 0, stops the join after this many pairs.
	Limit int
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	switch {
	case q.MaxNetworkDist < 0:
		return fmt.Errorf("rcjnet: invalid query: negative max network distance %g", q.MaxNetworkDist)
	case q.TopK < 0:
		return fmt.Errorf("rcjnet: invalid query: negative top-k %d", q.TopK)
	case q.Limit < 0:
		return fmt.Errorf("rcjnet: invalid query: negative limit %d", q.Limit)
	}
	return nil
}

// Matches reports whether one pair satisfies the query's pair-level
// predicates (MaxNetworkDist) — the post-filter the pushdown is equivalent
// to.
func (q Query) Matches(p Pair) bool {
	return q.MaxNetworkDist <= 0 || p.NetworkDist <= q.MaxNetworkDist
}

// Run streams the constrained network join: the iterator yields exactly the
// unconstrained join post-filtered by the query (TopK in ascending distance
// order). Cancelling ctx or breaking out aborts the join promptly.
func Run(ctx context.Context, gr *Graph, P, Q []Point, qry Query) iter.Seq2[Pair, error] {
	if err := qry.Validate(); err != nil {
		return func(yield func(Pair, error) bool) { yield(Pair{}, err) }
	}
	return stream.Seq2(ctx, 64, func(runCtx context.Context, emit func(Pair)) error {
		pRefs, err := toRefs(gr, P)
		if err != nil {
			return err
		}
		qRefs, err := toRefs(gr, Q)
		if err != nil {
			return err
		}
		k := qry.TopK
		if k > 0 && qry.Limit > 0 && qry.Limit < k {
			k = qry.Limit
		}
		best := newNetTopK(k) // nil when k == 0
		bound := func() float64 {
			b := math.Inf(1)
			if qry.MaxNetworkDist > 0 {
				b = qry.MaxNetworkDist
			}
			if best != nil {
				if tb := netBound(best); tb < b {
					b = tb
				}
			}
			return b
		}
		// Limit without TopK: cancel the traversal once enough pairs are out.
		runCtx, cancel := context.WithCancel(runCtx)
		defer cancel()
		emitted := 0
		limited := false
		_, _, err = roadnet.JoinBounded(runCtx, gr.g, pRefs, qRefs, bound, func(p roadnet.Pair) {
			if qry.MaxNetworkDist > 0 && p.Dist > qry.MaxNetworkDist {
				return
			}
			if best != nil {
				best.Offer(p)
				return
			}
			if qry.Limit > 0 && emitted >= qry.Limit {
				return
			}
			emit(fromRoadnetPair(p))
			emitted++
			if qry.Limit > 0 && emitted == qry.Limit {
				limited = true
				cancel()
			}
		})
		if err != nil {
			if limited && errors.Is(err, context.Canceled) && ctx.Err() == nil {
				err = nil // a satisfied Limit is a clean completion
			}
			if err != nil {
				return err
			}
		}
		if best != nil {
			for _, p := range best.Sorted() {
				emit(fromRoadnetPair(p))
			}
		}
		return nil
	})
}

// RunCollect materializes Run.
func RunCollect(ctx context.Context, gr *Graph, P, Q []Point, qry Query) ([]Pair, error) {
	var out []Pair
	for p, err := range Run(ctx, gr, P, Q, qry) {
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// newNetTopK returns the bounded pair-heap of a network TopK query, ranked
// by (Dist, P.ID, Q.ID); the k-th distance (netBound) serves as the
// traversal's dynamic bound. The join is single-goroutine, so no locking.
func newNetTopK(k int) *topk.Heap[roadnet.Pair] {
	if k <= 0 {
		return nil
	}
	return topk.New(k, netPairBefore)
}

func netPairBefore(a, b roadnet.Pair) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.P.ID != b.P.ID {
		return a.P.ID < b.P.ID
	}
	return a.Q.ID < b.Q.ID
}

// netBound returns the heap's current pruning bound: the k-th best network
// distance, +Inf until the heap fills.
func netBound(h *topk.Heap[roadnet.Pair]) float64 {
	if !h.Full() {
		return math.Inf(1)
	}
	return h.Worst().Dist
}

func fromRoadnetPair(p roadnet.Pair) Pair {
	return Pair{
		P:           Point{ID: p.P.ID, Node: p.P.Node},
		Q:           Point{ID: p.Q.ID, Node: p.Q.Node},
		NetworkDist: p.Dist,
		StandU:      p.Center.U,
		StandV:      p.Center.V,
		StandOffset: p.Center.OffU,
		WalkEach:    p.Radius,
	}
}

func toRefs(gr *Graph, pts []Point) ([]roadnet.PointRef, error) {
	seen := make(map[int64]struct{}, len(pts))
	out := make([]roadnet.PointRef, len(pts))
	for i, p := range pts {
		if int(p.Node) < 0 || int(p.Node) >= gr.g.NumNodes() {
			return nil, fmt.Errorf("rcjnet: point %d on unknown node %d", p.ID, p.Node)
		}
		if _, dup := seen[p.ID]; dup {
			return nil, fmt.Errorf("rcjnet: duplicate point ID %d", p.ID)
		}
		seen[p.ID] = struct{}{}
		out[i] = roadnet.PointRef{ID: p.ID, Node: p.Node}
	}
	return out, nil
}
