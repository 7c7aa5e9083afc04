package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// checkL1 runs the Manhattan join through the one executor — every filter
// strategy Options.Algorithm can name must be ignored in favour of the L1
// stage — and compares with the oracle.
func checkL1(t *testing.T, ps, qs []rtree.PointEntry, self bool) {
	t.Helper()
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := tp
	want := BruteForceL1Pairs(ps, ps, true)
	if !self {
		tq = buildTree(t, qs, pool, 2, true)
		want = BruteForceL1Pairs(ps, qs, false)
	}
	ws := pairSet(want)
	for _, opts := range []Options{
		{},
		{Algorithm: AlgOBJ},
	} {
		opts.Metric, opts.SelfJoin, opts.Collect = MetricL1, self, true
		got, stats, err := Join(tq, tp, opts)
		if err != nil {
			t.Fatalf("L1 join: %v", err)
		}
		gs := pairSet(got)
		if len(gs) != len(got) {
			t.Errorf("%+v: duplicate L1 pairs: %d distinct of %d", opts, len(gs), len(got))
		}
		for k, w := range ws {
			if g, ok := gs[k]; !ok {
				t.Errorf("%+v: L1 false negative: %s", opts, k)
			} else if g.Circle != w.Circle {
				t.Errorf("%+v: pair %s carries ball %+v, want %+v", opts, k, g.Circle, w.Circle)
			}
		}
		for k := range gs {
			if _, ok := ws[k]; !ok {
				t.Errorf("%+v: L1 false positive: %s", opts, k)
			}
		}
		if stats.Results != int64(len(got)) {
			t.Errorf("%+v: stats.Results=%d len=%d", opts, stats.Results, len(got))
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

func TestL1QuadrantLemma(t *testing.T) {
	// Property: any pruned p' has its L1 ball covering p, so the prune is
	// always justified (the L1 analogue of the Lemma 1 test).
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		pp := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		if p.Equal(q) {
			continue
		}
		pr := newL1Pruner(q, p)
		if pr.prunesPoint(pp) {
			if geom.L1DiscSign(pp, q, p) > 0 {
				t.Fatalf("L1 quadrant lemma violated: q=%+v p=%+v p'=%+v", q, p, pp)
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

// BenchmarkJoinL1 measures the Manhattan-metric join of 2K x 2K uniform
// points over a warm, unbounded buffer.
func BenchmarkJoinL1(b *testing.B) {
	pool := buffer.NewPool(-1)
	tq := buildTree(b, workload.Uniform(2000, 1), pool, 1, true)
	tp := buildTree(b, workload.Uniform(2000, 2), pool, 2, true)
	for i := 0; i < b.N; i++ {
		if _, _, err := Join(tq, tp, Options{Metric: MetricL1}); err != nil {
			b.Fatal(err)
		}
	}
}
