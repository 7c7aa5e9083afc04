package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// l1Legs are the predicate legs every L1 oracle test runs, sized by the
// inputs' extent: the full join, a diameter bound, a distance floor, a
// Region window (no derived bound: that is Euclidean only) and a ranking.
func l1Legs(extent geom.Rect) []filterCountsClass {
	w, h := extent.MaxX-extent.MinX, extent.MaxY-extent.MinY
	c := extent.Center()
	return []filterCountsClass{
		{"full", Options{}},
		{"maxd", Options{MaxDiameter: 0.05 * (w + h)}},
		{"mind", Options{MinDistance: 0.02 * (w + h)}},
		{"region", Options{Region: &geom.Rect{MinX: c.X - 0.2*w, MinY: c.Y - 0.2*h, MaxX: c.X + 0.2*w, MaxY: c.Y + 0.2*h}}},
		{"topk", Options{TopK: 7}},
	}
}

// checkL1 runs the Manhattan join through the one executor under each of
// INJ, BIJ and OBJ and every predicate leg, on 1 KiB pages (42-point
// leaves, so BIJ and OBJ batch several leaves), and compares each with the
// oracle BruteForceL1Pairs post-filtered by the leg: the same pairs, the
// same balls, and for a ranking the same order.
func checkL1(t *testing.T, ps, qs []rtree.PointEntry, self bool) {
	t.Helper()
	pool := buffer.NewPool(-1)
	tp := buildTreePaged(t, ps, pool, 1, true, 1024)
	tq := tp
	extent := geom.EmptyRect()
	for _, p := range append(slices.Clip(ps), qs...) {
		extent = extent.ExtendPoint(p.P)
	}
	oracle := BruteForceL1Pairs(ps, ps, true)
	if !self {
		tq = buildTreePaged(t, qs, pool, 2, true, 1024)
		oracle = BruteForceL1Pairs(ps, qs, false)
	}
	for _, leg := range l1Legs(extent) {
		want := postFilterDist(oracle, leg.opts, geom.Point.L1Dist)
		ws := pairSet(want)
		for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
			opts := leg.opts
			opts.Algorithm, opts.Metric, opts.SelfJoin, opts.Collect = alg, MetricL1, self, true
			name := fmt.Sprintf("%s/%v", leg.name, alg)
			got, stats, err := Join(tq, tp, opts)
			if err != nil {
				t.Fatalf("%s: L1 join: %v", name, err)
			}
			if stats.Results != int64(len(got)) {
				t.Errorf("%s: stats.Results=%d len=%d", name, stats.Results, len(got))
			}
			if opts.TopK > 0 {
				if !slices.Equal(got, want) {
					t.Errorf("%s: ranking %v, oracle's %v", name, got, want)
				}
				continue
			}
			gs := pairSet(got)
			if len(gs) != len(got) {
				t.Errorf("%s: duplicate L1 pairs: %d distinct of %d", name, len(gs), len(got))
			}
			for k, w := range ws {
				if g, ok := gs[k]; !ok {
					t.Errorf("%s: L1 false negative: %s", name, k)
				} else if g.Circle != w.Circle {
					t.Errorf("%s: pair %s carries ball %+v, want %+v", name, k, g.Circle, w.Circle)
				}
			}
			for k := range gs {
				if _, ok := ws[k]; !ok {
					t.Errorf("%s: L1 false positive: %s", name, k)
				}
			}
		}
	}
}

func TestL1JoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 10, 60, 150} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			checkL1(t, randomPoints(rng, n), randomPoints(rng, n+5), false)
		})
	}
}

func TestL1JoinClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	checkL1(t, clusteredPoints(rng, 100, 3, 300), clusteredPoints(rng, 80, 4, 500), false)
}

func TestL1SelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	checkL1(t, randomPoints(rng, 90), nil, true)
}

// TestL1DegenerateGenerators holds the L1 join to the oracle on every
// workload.Degenerate generator, two-set and self, under every algorithm
// and predicate leg: n = 160, and 400 too outside -race.
func TestL1DegenerateGenerators(t *testing.T) {
	sizes := []int{160, 400}
	if raceEnabled {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for _, c := range workload.Degenerate(n) {
			for _, self := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n%d/self=%v", c.Name, n, self), func(t *testing.T) {
					t.Parallel()
					checkL1(t, c.P, c.Q, self)
				})
			}
		}
	}
}

// TestL1QuadrantLemma checks the region the L1 filter prunes with: a point
// in the closed quadrant of a discovered p has p in its L1 ball with q (the
// L1 analogue of the Lemma 1 test). Coordinates come from a continuum and
// from a 5×5 lattice, where ties on an axis — the quadrants' boundaries —
// are common.
func TestL1QuadrantLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	draws := map[string]func() geom.Point{
		"continuum": func() geom.Point { return geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100} },
		"lattice":   func() geom.Point { return geom.Point{X: float64(rng.Intn(5)), Y: float64(rng.Intn(5))} },
	}
	for name, draw := range draws {
		for i := 0; i < 20000; i++ {
			q, p, pp := draw(), draw(), draw()
			if l1Quadrant(q, p).ContainsPoint(pp) && geom.L1DiscSign(pp, q, p) > 0 {
				t.Fatalf("%s: L1 quadrant lemma violated: q=%+v p=%+v p'=%+v", name, q, p, pp)
			}
		}
	}
}

func TestL1DegenerateConfigs(t *testing.T) {
	mk := func(pts ...geom.Point) []rtree.PointEntry {
		out := make([]rtree.PointEntry, len(pts))
		for i, p := range pts {
			out[i] = rtree.PointEntry{P: p, ID: int64(i)}
		}
		return out
	}
	checkL1(t, mk(geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 0}, geom.Point{X: 4, Y: 0}),
		mk(geom.Point{X: 1, Y: 0}, geom.Point{X: 3, Y: 0}), false)
	checkL1(t, mk(geom.Point{X: 5, Y: 5}, geom.Point{X: 5, Y: 5}),
		mk(geom.Point{X: 6, Y: 6}), false)
	checkL1(t, mk(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}, geom.Point{X: 2, Y: 2}, geom.Point{X: 0, Y: 2}), nil, true)
}

// TestL1RefusesEuclideanOnly: AlgBrute and AlgGabriel build and decide
// Euclidean rings only, so an L1 join naming either is an error, not a
// Euclidean answer.
func TestL1RefusesEuclideanOnly(t *testing.T) {
	pool := buffer.NewPool(-1)
	tr := buildTree(t, randomPoints(rand.New(rand.NewSource(21)), 30), pool, 1, true)
	for _, alg := range []Algorithm{AlgBrute, AlgGabriel} {
		if got, _, err := Join(tr, tr, Options{Algorithm: alg, Metric: MetricL1, SelfJoin: true, Collect: true}); err == nil {
			t.Errorf("L1 %v: %d pairs and no error", alg, len(got))
		}
	}
}

// BenchmarkJoinL1 measures the Manhattan-metric join of 2K x 2K uniform
// points over a warm, unbounded buffer under each index algorithm (an
// unforced L1 query resolves to OBJ). Each leg builds its own pool and
// trees and collects the garbage before its timer starts, so no leg runs
// on the heap an earlier one grew: run alone (-bench 'JoinL1/OBJ') or
// after the others, a leg reads the same.
func BenchmarkJoinL1(b *testing.B) {
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		b.Run(alg.String(), func(b *testing.B) {
			pool := buffer.NewPool(-1)
			tq := buildTree(b, workload.Uniform(2000, 1), pool, 1, true)
			tp := buildTree(b, workload.Uniform(2000, 2), pool, 2, true)
			opts := Options{Algorithm: alg, Metric: MetricL1}
			if _, _, err := Join(tq, tp, opts); err != nil { // fault every page in
				b.Fatal(err)
			}
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Join(tq, tp, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
