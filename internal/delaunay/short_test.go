package delaunay_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// shortOracle returns brute force's pairs with Dist ≤ r as sorted keys.
func shortOracle(ps, qs []rtree.PointEntry, self bool, r float64) [][2]int64 {
	var keep []core.Pair
	for _, p := range core.BruteForcePairs(ps, qs, self) {
		if p.P.P.Dist(p.Q.P) <= r {
			keep = append(keep, p)
		}
	}
	return idPairs(keep)
}

// shortKeys runs Short and returns its pairs as sorted keys, each
// self-join pair with the smaller id first, as brute force reports it.
func shortKeys(t *testing.T, m *delaunay.Mesh, ps, qs []rtree.PointEntry, self bool, r float64) ([][2]int64, bool) {
	t.Helper()
	if self {
		qs = ps
	}
	pairs, _, ok, err := m.Short(ps, qs, self, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.Pair, len(pairs))
	for i, pr := range pairs {
		p, q := ps[pr.P], qs[pr.Q]
		if self && q.ID < p.ID {
			p, q = q, p
		}
		out[i] = core.Pair{P: p, Q: q}
	}
	return idPairs(out), ok
}

// TestShortMatchesBruteForce holds Short to brute force cut at Dist ≤ r,
// at radii where pairs lie exactly at r and points exactly on cell
// boundaries: unit lattices (cells of side r = 1 and 2 start at the
// lattice's corner, so every point is on a boundary, and the lattice's
// edges are Gabriel pairs at exactly r), the same lattices translated by
// 1e9 and scaled by 2⁻³⁰ (the cell arithmetic then rounds), and every
// workload.Degenerate generator at radii from a nearest-neighbour
// distance to a third of the domain; Short may give up on the wider radii
// (the caller then triangulates), never on a lattice's unit radius or the
// float below it. One Mesh serves every call, so its reused buffers are
// exercised too.
func TestShortMatchesBruteForce(t *testing.T) {
	lattice := func(side int, id0 int64, offset, scale float64, skip int) []rtree.PointEntry {
		var out []rtree.PointEntry
		for i := 0; i < side*side; i++ {
			if i%3 == skip {
				continue
			}
			out = append(out, rtree.PointEntry{ID: id0 + int64(i), P: geom.Point{X: offset + scale*float64(i%side), Y: offset + scale*float64(i/side)}})
		}
		return out
	}
	type input struct {
		name  string
		ps    []rtree.PointEntry
		qs    []rtree.PointEntry
		radii []float64
	}
	var inputs []input
	for _, lt := range []struct {
		name          string
		offset, scale float64
	}{{"lattice", 0, 1}, {"lattice+1e9", 1e9, 1}, {"lattice*2^-30", 0, 0x1p-30}} {
		s := lt.scale
		inputs = append(inputs, input{lt.name, lattice(12, 0, lt.offset, s, 0), lattice(12, 1000, lt.offset, s, 1), []float64{s, math.Sqrt2 * s, 2 * s, math.Nextafter(s, 0), 3 * s}})
	}
	for _, c := range workload.Degenerate(160) {
		inputs = append(inputs, input{c.Name, c.P, c.Q, []float64{0, 1e-7, 50, 400, 3000}})
	}
	m := new(delaunay.Mesh)
	for _, in := range inputs {
		for _, self := range []bool{false, true} {
			for i, r := range in.radii {
				name := fmt.Sprintf("%s self=%v r=%g", in.name, self, r)
				got, ok := shortKeys(t, m, in.ps, in.qs, self, r)
				if !ok {
					// The caller triangulates. A lattice's unit radius and
					// the float below it are the adversarial calls: they
					// must be answered.
					if strings.HasPrefix(in.name, "lattice") && (i == 0 || i == 3) {
						t.Errorf("%s: Short gave up", name)
					}
					continue
				}
				qs := in.qs
				if self {
					qs = in.ps
				}
				if want := shortOracle(in.ps, qs, self, r); !slices.Equal(got, want) {
					t.Errorf("%s: Short %d pairs, brute force %d", name, len(got), len(want))
				}
			}
		}
	}
}
