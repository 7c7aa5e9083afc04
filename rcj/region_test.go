package rcj

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestRegionBoundExact is the exactness gate of the window's derived
// diameter bound (core.RegionDiameter, which the executor derives as its
// MaxDiameter): on every degenerate input, two-set and self, under OBJ, BIJ
// and INJ, ranked and unranked, a window query must return exactly the
// post-filtered unconstrained join of the same algorithm, and the bound
// itself must cover the widest pair the window admits. The windows run from
// zero area, centred on result centres (where the bound is tight: the
// centre's nearest point is an endpoint), and 1e-9 of the data's extent,
// through 1-20 % of it, to 150 % of it and one disjoint from the data. The
// unconstrained join of the same algorithm is the reference, not
// BruteForcePairs, which disagrees with every algorithm on `duplicates`
// (ROADMAP item 2).
func TestRegionBoundExact(t *testing.T) {
	const n = 160
	eng := NewEngine(EngineConfig{PageSize: countsPageSize})
	runs, bounded := 0, 0
	for _, g := range workload.Degenerate(n) {
		for _, self := range []bool{false, true} {
			name := g.Name
			if self {
				name += "/self"
			}
			t.Run(name, func(t *testing.T) {
				build := func(pts []Point) *Index {
					ix, err := eng.BuildIndex(pts, IndexConfig{PageSize: countsPageSize})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { ix.Close() })
					return ix
				}
				ps, qs := toPoints(g.P), toPoints(g.Q)
				p := build(ps)
				q := p
				if !self {
					q = build(qs)
				} else {
					qs = nil
				}
				for _, alg := range []Algorithm{OBJ, core.AlgBIJ, INJ} {
					full, _, err := eng.RunCollect(bg, q, p, Query{Algorithm: alg, ForceAlgorithm: true})
					if err != nil {
						t.Fatal(err)
					}
					for wi, w := range regionBoundWindows(append(ps, qs...), full) {
						in := postFilterQuery(full, Query{Region: &w})
						if d, widest := regionBoundOf(t, q, p, w), widestPair(in); !(d >= widest) {
							t.Fatalf("%v window %d %+v: derived bound %g below the widest admitted pair %g", alg, wi, w, d, widest)
						} else if !math.IsInf(d, 1) {
							bounded++
						}
						for _, k := range []int{0, 5} {
							qry := Query{Algorithm: alg, ForceAlgorithm: true, TopK: k, Region: &w}
							got, _, err := eng.RunCollect(bg, q, p, qry)
							if err != nil {
								t.Fatal(err)
							}
							runs++
							label := fmt.Sprintf("%v window %d %+v k=%d", alg, wi, w, k)
							if want := postFilterQuery(full, qry); k > 0 {
								samePairOrder(t, label, want, got)
							} else if pairDigest(got) != pairDigest(want) {
								t.Fatalf("%s: %d pairs (digest %s), want %d (digest %s)",
									label, len(got), pairDigest(got), len(want), pairDigest(want))
							}
						}
					}
				}
			})
		}
	}
	if bounded == 0 {
		t.Error("no window derived a finite bound")
	}
	t.Logf("%d window runs, %d finite bounds", runs, bounded)
}

// TestRegionBoundScope pins where a window derives its own bound: the
// executor derives it under a zero MaxDiameter (core.TestDerivesRegionBound),
// and prepare hands it one only for a window over two sealed indexes. A
// query that brings its own MaxDiameter keeps it and never pays the probe
// (every shard sub-query carries the manifest's bound:
// router.TestRouterSubQueriesCarryBound), and a window over a live input
// gets +Inf, the unbounded window, so the live window rows of
// join_counts.golden must read exactly as they did before the bound
// existed.
func TestRegionBoundScope(t *testing.T) {
	eng := NewEngine(EngineConfig{PageSize: countsPageSize})
	ps, qs := countsCorpus()
	sealed, err := eng.BuildIndex(ps, IndexConfig{PageSize: countsPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer sealed.Close()
	other, err := eng.BuildIndex(qs, IndexConfig{PageSize: countsPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	live, err := eng.NewMutableIndex(ps, MutableConfig{Index: IndexConfig{PageSize: countsPageSize}, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	w := &Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		q, p *Index
		qry  Query
		want float64 // 0: the executor derives the window's bound
	}{
		{"sealed window", other, sealed, Query{Region: w}, 0},
		{"sealed self window", sealed, sealed, Query{Region: w}, 0},
		{"sealed ranked window", other, sealed, Query{Region: w, TopK: 10}, 0},
		{"no window", other, sealed, Query{}, 0},
		{"window with its own bound", other, sealed, Query{Region: w, MaxDiameter: 30}, 30},
		{"live window with its own bound", live, sealed, Query{Region: w, MaxDiameter: 30}, 30},
		{"live inner", other, live, Query{Region: w}, inf},
		{"live outer", live, sealed, Query{Region: w}, inf},
		{"live self", live, live, Query{Region: w}, inf},
	} {
		if got := windowBound(c.q, c.p, c.qry); got != c.want {
			t.Errorf("%s: windowBound = %g, want %g", c.name, got, c.want)
		}
	}

	// The live window rows as the parent of the derived bound recorded them.
	want := []string{
		"live-inner/window/OBJ results=22 candidates=41 accesses=91 faults=0 pruned=116 killed=0 digest=479f6504fc9519ef",
		"live-inner/window/INJ results=22 candidates=67 accesses=499 faults=0 pruned=843 killed=0 digest=479f6504fc9519ef",
		"live-inner/topk-window/OBJ results=10 candidates=68 accesses=458 faults=0 pruned=799 killed=0 digest=65c4fe140408fc8c",
		"live-inner/topk-window/INJ results=10 candidates=46 accesses=2327 faults=0 pruned=6634 killed=0 digest=65c4fe140408fc8c",
		"live-outer/window/OBJ results=26 candidates=47 accesses=92 faults=0 pruned=84 killed=0 digest=0f7dff148ad7481c",
		"live-outer/window/INJ results=26 candidates=72 accesses=441 faults=0 pruned=519 killed=0 digest=0f7dff148ad7481c",
		"live-outer/topk-window/OBJ results=10 candidates=48 accesses=444 faults=0 pruned=668 killed=0 digest=fca68d7ff7da42e6",
		"live-outer/topk-window/INJ results=10 candidates=58 accesses=2124 faults=0 pruned=5201 killed=0 digest=fca68d7ff7da42e6",
	}
	var got []string
	for _, v := range countsVariants(t, t.TempDir()) {
		if !strings.HasPrefix(v.name, "live-") {
			continue
		}
		for _, c := range countsClasses() {
			if c.qry.Region == nil {
				continue
			}
			for _, alg := range []Algorithm{OBJ, INJ} {
				qry := c.qry
				qry.Algorithm, qry.ForceAlgorithm = alg, true
				got = append(got, countsRow(t, v.name, v.open, c.name, c.self, qry))
			}
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("live window rows moved:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}

// regionBoundWindows returns the sweep's windows over pts: zero-area and
// 1e-9-wide ones on result centres, squares of 1-20 % of the extent at
// seeded positions, one of 150 % of it around the data, and one disjoint
// from it.
func regionBoundWindows(pts []Point, full []Pair) []Rect {
	box := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, pt := range pts {
		box.MinX, box.MinY = math.Min(box.MinX, pt.X), math.Min(box.MinY, pt.Y)
		box.MaxX, box.MaxY = math.Max(box.MaxX, pt.X), math.Max(box.MaxY, pt.Y)
	}
	extent := math.Max(box.MaxX-box.MinX, box.MaxY-box.MinY)
	square := func(x, y, side float64) Rect {
		return Rect{MinX: x - side/2, MinY: y - side/2, MaxX: x + side/2, MaxY: y + side/2}
	}
	rng := rand.New(rand.NewSource(34))
	var out []Rect
	for i := 0; i < 8 && len(full) > 0; i++ {
		c := full[rng.Intn(len(full))].Center
		out = append(out, square(c.X, c.Y, 0), square(c.X, c.Y, 1e-9*extent))
	}
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.1, 0.2} {
		for i := 0; i < 4; i++ {
			x := box.MinX + rng.Float64()*(box.MaxX-box.MinX)
			y := box.MinY + rng.Float64()*(box.MaxY-box.MinY)
			out = append(out, square(x, y, frac*extent))
		}
	}
	mid := Rect{MinX: (box.MinX + box.MaxX) / 2, MinY: (box.MinY + box.MaxY) / 2}
	out = append(out,
		square(mid.MinX, mid.MinY, 1.5*extent),
		square(box.MaxX+extent, box.MaxY+extent, 0.2*extent))
	return out
}

// regionBoundOf is the bound prepare would derive for window w over the
// pair (q, p).
func regionBoundOf(t *testing.T, q, p *Index, w Rect) float64 {
	t.Helper()
	var rec buffer.TagStats
	var co core.Options
	tq, tp, release, err := joinViews(q, p, &rec, &co)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	d, err := core.RegionDiameter(tq, tp, w.geom())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// widestPair is the largest diameter among pairs, 0 for none.
func widestPair(pairs []Pair) float64 {
	d := 0.0
	for _, pr := range pairs {
		d = math.Max(d, pr.Diameter())
	}
	return d
}

// samePairOrder checks a ranked result pair by pair, in order.
func samePairOrder(t *testing.T, label string, want, got []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].P.ID != want[i].P.ID || got[i].Q.ID != want[i].Q.ID {
			t.Fatalf("%s: pair %d is <%d,%d>, want <%d,%d>", label, i, got[i].P.ID, got[i].Q.ID, want[i].P.ID, want[i].Q.ID)
		}
	}
}

// toPoints converts generator output to the package's points.
func toPoints(pts []rtree.PointEntry) []Point {
	out := make([]Point, len(pts))
	for i, e := range pts {
		out[i] = Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
	}
	return out
}
