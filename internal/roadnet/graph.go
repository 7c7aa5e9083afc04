// Package roadnet implements the road-network generalization of the
// ring-constrained join, the third future-work direction of the paper
// (Section 6): "the shortest path distance along a road network that
// restricts the locations of points".
//
// Points live on the nodes of an undirected weighted graph. For a pair
// <p, q>, the Euclidean enclosing circle generalizes to the *network ball*:
// the midpoint m of a shortest p–q path (a location, possibly mid-edge,
// equidistant from both endpoints — the network 1-center of {p, q}), and
// radius r = d(p, q)/2. The pair is a network-RCJ result when no other point
// of either dataset lies within network distance r of m (closed ball, same
// tolerance convention as the Euclidean join).
//
// The join algorithm mirrors the paper's filter/verification structure:
//
//   - Filter: a Dijkstra expansion from each q collects candidate points of
//     P in network-distance order, pruning with the network analogue of
//     Lemma 1 — any point p' whose shortest path from q passes through an
//     already-discovered candidate p satisfies d(q,p') = d(q,p) + d(p,p'),
//     which places p inside the closed ball of <p', q>, so p' cannot
//     qualify. Coverage propagates down the Dijkstra tree and covered
//     branches are not expanded.
//   - Verification: each surviving candidate's exact shortest path, ball
//     center and radius are computed, and a bounded Dijkstra from the
//     center looks for any other point inside the ball.
package roadnet

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/geom"
)

// NodeID identifies a graph node.
type NodeID int32

// Edge is one directed half of an undirected road segment.
type Edge struct {
	To NodeID
	W  float64
}

// Graph is an undirected weighted graph with node coordinates (coordinates
// are used for generation and visualization; all join semantics use only
// the network distance).
type Graph struct {
	adj [][]Edge
	pos []geom.Point
}

// NewGraph returns a graph with n isolated nodes at the given positions
// (pos may be nil; len(pos) must otherwise equal n).
func NewGraph(n int, pos []geom.Point) (*Graph, error) {
	if pos != nil && len(pos) != n {
		return nil, fmt.Errorf("roadnet: %d positions for %d nodes", len(pos), n)
	}
	if pos == nil {
		pos = make([]geom.Point, n)
	}
	return &Graph{adj: make([][]Edge, n), pos: pos}, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// Pos returns the embedding coordinate of a node.
func (g *Graph) Pos(v NodeID) geom.Point { return g.pos[v] }

// AddEdge adds an undirected edge of weight w between a and b.
func (g *Graph) AddEdge(a, b NodeID, w float64) error {
	if int(a) >= len(g.adj) || int(b) >= len(g.adj) || a < 0 || b < 0 {
		return fmt.Errorf("roadnet: edge %d–%d out of range", a, b)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("roadnet: invalid edge weight %g", w)
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, W: w})
	g.adj[b] = append(g.adj[b], Edge{To: a, W: w})
	return nil
}

// pqItem is a Dijkstra heap element.
type pqItem struct {
	dist   float64
	node   NodeID
	parent NodeID
}

type pq []pqItem

func (h pq) Len() int           { return len(h) }
func (h pq) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h pq) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x any)        { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// ShortestPath returns the network distance from src to dst and the node
// sequence of one shortest path (src first). maxDist bounds the expansion
// (use +Inf for unbounded); if dst is unreachable within the bound, ok is
// false.
func (g *Graph) ShortestPath(src, dst NodeID, maxDist float64) (dist float64, path []NodeID, ok bool) {
	n := len(g.adj)
	d := make([]float64, n)
	par := make([]NodeID, n)
	settled := make([]bool, n)
	for i := range d {
		d[i] = math.Inf(1)
		par[i] = -1
	}
	h := pq{{dist: 0, node: src, parent: -1}}
	heap.Init(&h)
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if settled[it.node] {
			continue
		}
		settled[it.node] = true
		d[it.node] = it.dist
		par[it.node] = it.parent
		if it.node == dst {
			// Reconstruct.
			var rev []NodeID
			for v := dst; v != -1; v = par[v] {
				rev = append(rev, v)
			}
			path = make([]NodeID, len(rev))
			for i, v := range rev {
				path[len(rev)-1-i] = v
			}
			return it.dist, path, true
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.W
			if nd <= maxDist && !settled[e.To] {
				heap.Push(&h, pqItem{dist: nd, node: e.To, parent: it.node})
			}
		}
	}
	return 0, nil, false
}

// BallCenter is a location on the network: on the edge from U toward V, at
// distance OffU from U. A node location has V == U and OffU == 0.
type BallCenter struct {
	U, V NodeID
	OffU float64
}

// midpointOnPath returns the point at distance half along a shortest path
// with the given node sequence and edge-accurate total distance.
func (g *Graph) midpointOnPath(path []NodeID, total float64) BallCenter {
	if len(path) == 1 {
		return BallCenter{U: path[0], V: path[0]}
	}
	half := total / 2
	acc := 0.0
	for i := 0; i+1 < len(path); i++ {
		w := g.edgeWeight(path[i], path[i+1])
		if acc+w >= half || i+2 == len(path) {
			off := half - acc
			if off < 0 {
				off = 0
			}
			if off > w {
				off = w
			}
			return BallCenter{U: path[i], V: path[i+1], OffU: off}
		}
		acc += w
	}
	return BallCenter{U: path[len(path)-1], V: path[len(path)-1]}
}

// edgeWeight returns the minimum weight among parallel a–b edges.
func (g *Graph) edgeWeight(a, b NodeID) float64 {
	best := math.Inf(1)
	for _, e := range g.adj[a] {
		if e.To == b && e.W < best {
			best = e.W
		}
	}
	return best
}

// DistancesFromCenter returns the distance from a BallCenter to every node
// (Inf where unreachable within maxDist).
func (g *Graph) DistancesFromCenter(c BallCenter, maxDist float64) []float64 {
	n := len(g.adj)
	d := make([]float64, n)
	settled := make([]bool, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	h := pq{}
	if c.U == c.V {
		h = append(h, pqItem{dist: 0, node: c.U})
	} else {
		w := g.edgeWeight(c.U, c.V)
		h = append(h, pqItem{dist: c.OffU, node: c.U})
		h = append(h, pqItem{dist: w - c.OffU, node: c.V})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if settled[it.node] || it.dist > maxDist {
			continue
		}
		settled[it.node] = true
		d[it.node] = it.dist
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.W
			if nd <= maxDist && !settled[e.To] {
				heap.Push(&h, pqItem{dist: nd, node: e.To})
			}
		}
	}
	return d
}

// Embedding returns the coordinate of a BallCenter via linear interpolation
// along its edge (for visualization only).
func (g *Graph) Embedding(c BallCenter) geom.Point {
	if c.U == c.V {
		return g.pos[c.U]
	}
	w := g.edgeWeight(c.U, c.V)
	t := 0.0
	if w > 0 {
		t = c.OffU / w
	}
	a, b := g.pos[c.U], g.pos[c.V]
	return geom.Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}
