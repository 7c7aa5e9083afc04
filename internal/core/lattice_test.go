package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// latticeCase is one two-set input of lattice halves.
type latticeCase struct {
	name string
	p, q []rtree.PointEntry
}

// latticeHalves returns the three lattice shapes at n and seed: a shuffled
// half of Grid(n), keeping its Grid IDs, against all of Grid(n); the same
// half against Grid(n)[:n/2]; and the first halves of two successive
// shuffles, Q re-IDed 0..n/2-1. Every Q point of the first shape sits on a
// P point, so a pair's own endpoint is a witness on its closed disc, and the
// lattice puts witnesses exactly on discs' extreme x and y.
func latticeHalves(n int, seed int64) []latticeCase {
	rng := rand.New(rand.NewSource(seed))
	shuffledHalf := func() []rtree.PointEntry {
		g := workload.Grid(n)
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		return g[:n/2]
	}
	reID := func(pts []rtree.PointEntry) []rtree.PointEntry {
		for i := range pts {
			pts[i].ID = int64(i)
		}
		return pts
	}
	half := shuffledHalf()
	return []latticeCase{
		{"half-vs-full", half, workload.Grid(n)},
		{"half-vs-prefix", half, reID(workload.Grid(n)[:n/2])},
		{"half-vs-half", half, reID(shuffledHalf())},
	}
}

// TestLatticeWitnessesMatchOracle is the gate on boundary witnesses: on
// lattice halves, where points sit exactly on the extreme x or y of other
// pairs' discs, every algorithm on STR-built trees returns BruteForcePairs'
// pairs, pair for pair. A verifier whose entry/circle matching admits less
// than the exact closed-disc test (a prefilter box not widened like
// IntersectsRect) reports pairs that have a point on their disc.
func TestLatticeWitnessesMatchOracle(t *testing.T) {
	for _, n := range []int{100, 200, 300, 321, 400, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, c := range latticeHalves(n, seed) {
				pool := buffer.NewPool(-1)
				tp := buildTree(t, c.p, pool, 1, true)
				tq := buildTree(t, c.q, pool, 2, true)
				want := BruteForcePairs(c.p, c.q, false)
				for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
					got, _, err := Join(tq, tp, Options{Algorithm: alg, Collect: true})
					if err != nil {
						t.Fatal(err)
					}
					diffPairs(t, fmt.Sprintf("%s/n%d/seed%d/%v", c.name, n, seed, alg), want, got)
				}
			}
		}
	}
}
