package delaunay_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// idPairs returns a result's pairs as sorted (P id, Q id) keys.
func idPairs(pairs []core.Pair) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int64{p.P.ID, p.Q.ID}
	}
	slices.SortFunc(out, func(a, b [2]int64) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// TestGabrielMatchesBruteForce is the triangulation's proof against the
// independent cubic oracle: on every workload.Degenerate generator (lattice,
// collinear, cocircular, distant clusters, clamped Gaussians, exact and
// 1e-7 duplicates, offsets of 1e9) at n = 40, 160 and 300, two-set and
// self, and on all-coincident and two-location inputs, the Gabriel pairs
// equal core.BruteForcePairs pair for pair.
func TestGabrielMatchesBruteForce(t *testing.T) {
	var cases []workload.Case
	for _, n := range []int{40, 160, 300} {
		for _, c := range workload.Degenerate(n) {
			c.Name = fmt.Sprintf("%s/n%d", c.Name, n)
			cases = append(cases, c)
		}
	}
	same := func(n int, id0 int64) []rtree.PointEntry {
		out := make([]rtree.PointEntry, n)
		for i := range out {
			out[i] = rtree.PointEntry{ID: id0 + int64(i)}
			out[i].P.X, out[i].P.Y = 3, 4
			if i%2 == 1 && n > 3 {
				out[i].P.X = 5
			}
		}
		return out
	}
	for _, k := range []int{1, 2, 3, 6} {
		cases = append(cases, workload.Case{Name: fmt.Sprintf("coincident%d", k), P: same(k, 0), Q: same(k, 100)})
	}
	for _, c := range cases {
		for _, self := range []bool{false, true} {
			qs := c.Q
			if self {
				qs = c.P
			}
			want := idPairs(core.BruteForcePairs(c.P, qs, self))
			got := idPairs(core.GabrielPairs(c.P, qs, self))
			if !slices.Equal(got, want) {
				t.Errorf("%s self=%v: Gabriel has %d pairs, brute force %d", c.Name, self, len(got), len(want))
			}
		}
	}
}

// TestGabrielRandomMatchesBruteForce repeats the proof on small random
// inputs drawn from a 6 x 6 lattice (many duplicates, collinear and
// cocircular points) and from the unit square.
func TestGabrielRandomMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 400; it++ {
		gen := func(n int) []rtree.PointEntry {
			out := make([]rtree.PointEntry, n)
			for i := range out {
				out[i].ID = int64(i)
				if it%2 == 0 {
					out[i].P.X, out[i].P.Y = float64(rng.Intn(6)), float64(rng.Intn(6))
				} else {
					out[i].P.X, out[i].P.Y = rng.Float64(), rng.Float64()
				}
			}
			return out
		}
		ps, qs := gen(1+rng.Intn(30)), gen(1+rng.Intn(30))
		for _, self := range []bool{false, true} {
			q := qs
			if self {
				q = ps
			}
			want := idPairs(core.BruteForcePairs(ps, q, self))
			if got := idPairs(core.GabrielPairs(ps, q, self)); !slices.Equal(got, want) {
				t.Fatalf("iteration %d self=%v: Gabriel %v, brute force %v\nP=%v\nQ=%v", it, self, got, want, ps, qs)
			}
		}
	}
}

// TestVerticalLineThroughSignedZero runs the collinear path on a vertical
// line at x = ±0: the two zeros are one coordinate, so the line's order is
// by y alone, whatever the zeros' signs. A sort that kept −0 before +0
// would walk the line twice and join the wrong neighbours.
func TestVerticalLineThroughSignedZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gen := func(n int, id0 int64) []rtree.PointEntry {
		out := make([]rtree.PointEntry, n)
		for i := range out {
			out[i].ID = id0 + int64(i)
			out[i].P.Y = float64(rng.Intn(3 * n))
			if rng.Intn(2) == 0 {
				out[i].P.X = math.Copysign(0, -1)
			}
		}
		return out
	}
	for it := 0; it < 50; it++ {
		ps, qs := gen(2+rng.Intn(40), 0), gen(2+rng.Intn(40), 1000)
		for _, self := range []bool{false, true} {
			q := qs
			if self {
				q = ps
			}
			want := idPairs(core.BruteForcePairs(ps, q, self))
			if got := idPairs(core.GabrielPairs(ps, q, self)); !slices.Equal(got, want) {
				t.Fatalf("iteration %d self=%v: Gabriel %v, brute force %v", it, self, got, want)
			}
		}
	}
}
