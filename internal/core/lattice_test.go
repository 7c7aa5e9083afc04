package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

// latticeCase is one two-set input of lattice halves.
type latticeCase struct {
	name string
	p, q []rtree.PointEntry
	// self also runs P's self-join; matrix runs every tree kind of
	// TestLatticeWitnessesMatchOracle, not only STR at the default page.
	self, matrix bool
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
		{name: "half-vs-full", p: half, q: workload.Grid(n), self: true},
		{name: "half-vs-prefix", p: half, q: reID(workload.Grid(n)[:n/2])},
		{name: "half-vs-half", p: half, q: reID(shuffledHalf())},
	}
}

// exactnessCases returns the inputs of TestLatticeWitnessesMatchOracle: the
// lattice halves, and workload.Degenerate at n = 160, 400 and 1 000 with
// its clamped Gaussians translated by 1e6 and 1e9, each two-set and self on
// every tree kind. A short run skips n = 1 000 and runs n = 400 on STR
// trees at the default page only.
func exactnessCases(short bool) []latticeCase {
	var out []latticeCase
	for _, n := range []int{100, 200, 300, 321, 400, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, c := range latticeHalves(n, seed) {
				c.name = fmt.Sprintf("%s/n%d/seed%d", c.name, n, seed)
				out = append(out, c)
			}
		}
	}
	ns := []int{160, 400, 1000}
	if short {
		ns = ns[:2]
	}
	for _, n := range ns {
		for _, c := range workload.Degenerate(n) {
			matrix := !short || n == 160
			out = append(out, latticeCase{fmt.Sprintf("%s/n%d", c.Name, n), c.P, c.Q, true, matrix})
			if c.Name != "gaussclamped" {
				continue
			}
			for _, off := range []float64{1e6, 1e9} {
				shift := func(pts []rtree.PointEntry) []rtree.PointEntry {
					out := slices.Clone(pts)
					for i := range out {
						out[i].P.X += off
						out[i].P.Y += off
					}
					return out
				}
				out = append(out, latticeCase{fmt.Sprintf("%s+%g/n%d", c.Name, off, n), shift(c.P), shift(c.Q), true, matrix})
			}
		}
	}
	return out
}

// TestLatticeWitnessesMatchOracle is the exactness gate: on every input of
// exactnessCases, two-set and self, INJ, BIJ and OBJ return
// BruteForcePairs' pairs, pair for pair, on STR- and insert-built trees at
// page sizes 512, 1024 and 4096. Lattice halves put points exactly on the
// extreme x and y of other pairs' discs, so a verifier whose entry/circle
// matching admits less than the exact closed-disc test (a prefilter box not
// widened like IntersectsRect) reports pairs that have a point on their
// disc. Degenerate's duplicates hold exact copies of endpoints (on the
// disc) and 1e-7 twins (wherever their coordinates put them): a rounded
// test with a relative slack returned 94 of its 140 two-set pairs at
// n = 160, and the self-join's 162 pinned below. -short and -race runs are
// short (see exactnessCases).
func TestLatticeWitnessesMatchOracle(t *testing.T) {
	pinned := map[string]int{"duplicates/n160": 140, "duplicates/n160/self": 162}
	for _, c := range exactnessCases(testing.Short() || raceEnabled) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, self := range []bool{false, true} {
				if self && !c.self {
					continue
				}
				name, qs := c.name, c.q
				if self {
					name, qs = name+"/self", c.p
				}
				want := BruteForcePairs(c.p, qs, self)
				if n, ok := pinned[name]; ok && len(want) != n {
					t.Errorf("%s: oracle has %d pairs, want %d", name, len(want), n)
				}
				for _, pageSize := range []int{512, 1024, 4096} {
					for _, bulk := range []bool{true, false} {
						if !c.matrix && (pageSize != storage.DefaultPageSize || !bulk) {
							continue
						}
						pool := buffer.NewPool(-1)
						tp := buildTreePaged(t, c.p, pool, 1, bulk, pageSize)
						tq := tp
						if !self {
							tq = buildTreePaged(t, qs, pool, 2, bulk, pageSize)
						}
						for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
							got, _, err := Join(tq, tp, Options{Algorithm: alg, SelfJoin: self, Collect: true})
							if err != nil {
								t.Fatal(err)
							}
							diffPairs(t, fmt.Sprintf("%s/page%d/bulk=%v/%v", name, pageSize, bulk, alg), want, got)
						}
					}
				}
			}
		})
	}
}
