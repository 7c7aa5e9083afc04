package rcj

import (
	"math"
	"math/rand"
	"testing"
)

// The ring constraint is the Gabriel condition: RCJ(P, Q) is the bichromatic
// edge set of the Gabriel graph of P ∪ Q, and the self-join IS the Gabriel
// graph (Gabriel & Sokal 1969; Matula & Sokal 1980) — a planar graph that
// contains every nearest-neighbour edge and the Euclidean minimum spanning
// tree. That gives invariants a result must satisfy at sizes the O(n³)
// oracle cannot reach, checked here with a uniform grid and a union-find:
// no tree code, nothing shared with the executor. The invariants assume
// distinct points.

// pointGrid buckets points into square cells for nearest-neighbour search.
type pointGrid struct {
	cell  float64
	n     int // cells per side
	cells [][]Point
}

func newPointGrid(pts []Point, extent float64) *pointGrid {
	n := int(math.Sqrt(float64(len(pts))/2)) + 1 // ~2 points per cell
	g := &pointGrid{cell: extent / float64(n), n: n, cells: make([][]Point, n*n)}
	for _, p := range pts {
		cx, cy := g.at(p.X), g.at(p.Y)
		g.cells[cy*n+cx] = append(g.cells[cy*n+cx], p)
	}
	return g
}

func (g *pointGrid) at(v float64) int {
	return min(max(int(v/g.cell), 0), g.n-1)
}

// nearest returns the grid point closest to q other than q itself (by ID),
// scanning square rings of cells outward until no unvisited ring can hold a
// closer point.
func (g *pointGrid) nearest(q Point, skipID int64) (Point, float64) {
	cx, cy := g.at(q.X), g.at(q.Y)
	best, bestD := Point{}, math.Inf(1)
	for ring := 0; ring <= g.n; ring++ {
		// Every cell of this ring is at least (ring-1) cells away from q.
		if float64(ring-1)*g.cell > bestD {
			break
		}
		for y := cy - ring; y <= cy+ring; y++ {
			for x := cx - ring; x <= cx+ring; x++ {
				if max(x-cx, cx-x, y-cy, cy-y) != ring || x < 0 || y < 0 || x >= g.n || y >= g.n {
					continue
				}
				for _, p := range g.cells[y*g.n+x] {
					if d := math.Hypot(p.X-q.X, p.Y-q.Y); p.ID != skipID && d < bestD {
						best, bestD = p, d
					}
				}
			}
		}
	}
	return best, bestD
}

// TestGabrielStructure checks a 20 000-point self-join and the two-set join
// of its halves against the structure of the Gabriel graph, and the two
// joins against each other — code paths that share little: the self-join's
// symmetric pruning and ID skipping versus the two-set filter.
func TestGabrielStructure(t *testing.T) {
	const n, extent = 20_000, 10_000.0
	rng := rand.New(rand.NewSource(1969))
	seen := make(map[[2]float64]bool, n)
	all := make([]Point, 0, n)
	for len(all) < n {
		x, y := rng.Float64()*extent, rng.Float64()*extent
		if !seen[[2]float64{x, y}] {
			seen[[2]float64{x, y}] = true
			all = append(all, Point{X: x, Y: y, ID: int64(len(all))})
		}
	}
	// P holds the lower half of the IDs, so a self-join pair (P.ID < Q.ID)
	// with one endpoint in each half already has its P side in P.
	ps, qs := all[:n/2], all[n/2:]
	inP := func(id int64) bool { return id < n/2 }

	eng := NewEngine(EngineConfig{})
	build := func(pts []Point) *Index {
		ix, err := eng.BuildIndex(pts, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	ixAll, ixP, ixQ := build(all), build(ps), build(qs)

	self, _, err := eng.RunCollect(bg, ixAll, ixAll, Query{})
	if err != nil {
		t.Fatal(err)
	}
	selfKeys := keySet(self)
	if len(selfKeys) != len(self) {
		t.Fatalf("self-join repeats pairs: %d distinct of %d", len(selfKeys), len(self))
	}
	if len(self) > 3*n-8 {
		t.Errorf("self-join has %d pairs, a Gabriel graph on %d points has at most %d", len(self), n, 3*n-8)
	}
	grid := newPointGrid(all, extent)
	for _, p := range all {
		nn, _ := grid.nearest(p, p.ID)
		edge := [2]int64{p.ID, nn.ID}
		if nn.ID < p.ID {
			edge = [2]int64{nn.ID, p.ID}
		}
		if !selfKeys[edge] {
			t.Fatalf("point %d's nearest neighbour %d is not a self-join pair", p.ID, nn.ID)
		}
	}
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	components := n
	for k := range selfKeys {
		if a, b := find(k[0]), find(k[1]); a != b {
			parent[a] = b
			components--
		}
	}
	if components != 1 {
		t.Errorf("self-join graph has %d components; it contains the minimum spanning tree, so exactly 1", components)
	}

	two, _, err := eng.RunCollect(bg, ixQ, ixP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	twoKeys := keySet(two)
	if len(twoKeys) != len(two) {
		t.Fatalf("two-set join repeats pairs: %d distinct of %d", len(twoKeys), len(two))
	}
	if len(two) > 2*n-4 {
		t.Errorf("two-set join has %d pairs, a bipartite planar graph on %d points has at most %d", len(two), n, 2*n-4)
	}
	gridP := newPointGrid(ps, extent)
	closest, closestD := [2]int64{}, math.Inf(1)
	for _, q := range qs {
		if p, d := gridP.nearest(q, -1); d < closestD {
			closest, closestD = [2]int64{p.ID, q.ID}, d
		}
	}
	if !twoKeys[closest] {
		t.Errorf("the bichromatic closest pair %v (distance %g) is not a result", closest, closestD)
	}

	bichromatic := make(map[[2]int64]bool, len(two))
	for k := range selfKeys {
		if inP(k[0]) != inP(k[1]) {
			bichromatic[k] = true
		}
	}
	if !sameKeys(bichromatic, twoKeys) {
		t.Errorf("Run(P ∪ Q, P ∪ Q) restricted to bichromatic pairs != Run(Q, P): %s", diffKeys(bichromatic, twoKeys))
	}
	swapped, _, err := eng.RunCollect(bg, ixP, ixQ, Query{})
	if err != nil {
		t.Fatal(err)
	}
	transposed := make(map[[2]int64]bool, len(swapped))
	for _, pr := range swapped {
		transposed[[2]int64{pr.Q.ID, pr.P.ID}] = true
	}
	if len(transposed) != len(swapped) || !sameKeys(transposed, twoKeys) {
		t.Errorf("Run(P, Q) transposed != Run(Q, P): %s", diffKeys(transposed, twoKeys))
	}
}
