package rcj

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// latticeHalves returns the three lattice shapes at n and seed: a shuffled
// half of Grid(n), keeping its Grid IDs, against all of Grid(n); the same
// half against Grid(n)[:n/2]; and the first halves of two successive
// shuffles, Q re-IDed 0..n/2-1. Their points sit exactly on the extreme x
// and y of other pairs' discs (see core.TestLatticeWitnessesMatchOracle).
func latticeHalves(n int, seed int64) []workload.Case {
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
	name := fmt.Sprintf("lattice%d-%d/", n, seed)
	return []workload.Case{
		{Name: name + "half-vs-full", P: half, Q: workload.Grid(n)},
		{Name: name + "half-vs-prefix", P: half, Q: reID(workload.Grid(n)[:n/2])},
		{Name: name + "half-vs-half", P: half, Q: reID(shuffledHalf())},
	}
}

// pathKinds are the index kinds TestPathsAgree joins, by page size (see
// indexKinds; packed-v3/file reads the same pages as packed-v3/mem).
var pathKinds = []struct {
	pageSize int
	kinds    []string
}{
	{512, []string{"str-built", "insert-built", "packed-v3/mem", "live-view"}},
	{4096, []string{"str-built", "insert-built"}},
}

// TestPathsAgree is the gate on the executor's result-neutral forks: every
// way of running one join must return one result set, digest for digest.
// The inputs are workload.Degenerate at n = 160 and 400 and the lattice
// halves, two-set and self. Each runs on every kind of pathKinds (STR- and
// insert-built trees at page sizes 512 and 4096; packed v3 and a live
// base+delta view with tombstones at 512), under OBJ, BIJ and INJ, at
// Parallelism 1 and 2 with the face rule on and at Parallelism 1 with it
// off (a live view with tombstones always runs it off), and on the Gabriel
// path (one triangulation of the scanned points). core.BruteForcePairs on
// the same points is one more path: every input has one digest.
func TestPathsAgree(t *testing.T) {
	var cases []workload.Case
	for _, n := range []int{160, 400} {
		for _, c := range workload.Degenerate(n) {
			c.Name = fmt.Sprintf("%s/n%d", c.Name, n)
			cases = append(cases, c)
		}
	}
	cases = append(cases, latticeHalves(300, 1)...)
	cases = append(cases, latticeHalves(321, 2)...)

	eng := NewEngine(EngineConfig{})
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			var kindsP, kindsQ []indexKind
			for _, pk := range pathKinds {
				pick := func(pts []rtree.PointEntry) (out []indexKind) {
					for _, k := range indexKinds(t, eng, toPoints(pts), pk.pageSize) {
						if slices.Contains(pk.kinds, k.name) {
							out = append(out, indexKind{fmt.Sprintf("%s/%d", k.name, pk.pageSize), k.ix})
						}
					}
					return out
				}
				kindsP, kindsQ = append(kindsP, pick(c.P)...), append(kindsQ, pick(c.Q)...)
			}
			for _, self := range []bool{false, true} {
				name := c.Name
				if self {
					if strings.HasPrefix(name, "lattice") && !strings.HasSuffix(name, "half-vs-full") {
						continue // the three lattice shapes share P
					}
					name += "/self"
				}
				counts := map[string]int{}     // digest -> results
				paths := map[string][]string{} // digest -> the paths giving it
				qs := c.Q
				if self {
					qs = c.P
				}
				brute := core.BruteForcePairs(c.P, qs, self)
				d := corePairDigest(brute)
				counts[d], paths[d] = len(brute), []string{"brute-force"}
				for i, kp := range kindsP {
					q := kp.ix
					if !self {
						q = kindsQ[i].ix
					}
					for _, alg := range []Algorithm{OBJ, core.AlgBIJ, INJ, core.AlgGabriel} {
						for _, run := range []struct {
							par     int
							faceOff bool
						}{{1, false}, {2, false}, {1, true}} {
							if alg == core.AlgGabriel && (run.par > 1 || run.faceOff) {
								continue // neither applies to a triangulation
							}
							var opts core.Options
							tq, tp, release, err := joinViews(q, kp.ix, &buffer.TagStats{}, &opts)
							if err != nil {
								t.Fatal(err)
							}
							opts.Algorithm, opts.Parallelism, opts.Collect = alg, run.par, true
							opts.DisableFaceRule = opts.DisableFaceRule || run.faceOff
							pairs, _, err := core.Join(tq, tp, opts)
							release()
							if err != nil {
								t.Fatal(err)
							}
							d := corePairDigest(pairs)
							counts[d] = len(pairs)
							paths[d] = append(paths[d], fmt.Sprintf("%s/%v/par%d/faceoff=%v", kp.name, alg, run.par, run.faceOff))
						}
					}
				}
				if len(counts) == 1 {
					continue
				}
				var b strings.Builder
				for d, ps := range paths {
					fmt.Fprintf(&b, "\n  %d pairs (digest %s) on %d paths, e.g. %s", counts[d], d, len(ps), ps[0])
				}
				t.Errorf("%s: %d result sets%s", name, len(counts), b.String())
			}
		})
	}
}

// corePairDigest hashes a core result set in id order: ids and the exact
// bits of every ring.
func corePairDigest(pairs []core.Pair) string {
	sorted := slices.Clone(pairs)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].P.ID != sorted[b].P.ID {
			return sorted[a].P.ID < sorted[b].P.ID
		}
		return sorted[a].Q.ID < sorted[b].Q.ID
	})
	h := fnv.New64a()
	for _, p := range sorted {
		c := p.Circle
		fmt.Fprintf(h, "%d,%d,%x,%x,%x;", p.P.ID, p.Q.ID,
			math.Float64bits(c.Center.X), math.Float64bits(c.Center.Y), math.Float64bits(c.Radius))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
