package rcj

import (
	"math"
	"testing"

	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestWarmAllocs pins the recycled executor scratch: a warm join drained
// through Engine.Run allocates what its result and its plan need, not the
// filter heap, pruner sets, candidate batches, verify stack or
// triangulation of every run again. Shapes of the embedded benchmark: a
// window on G20k x U20k (which derives its own diameter bound), a G4k x U4k
// full join forced onto OBJ (the R-tree path), and the same join planned
// (the Gabriel path, whose scans, triangulation and sort keys are pooled
// too); and an L1 join of U4k x G4k, on OBJ like the Euclidean one (its
// quadrant sets are recycled with the pruner sets). They measure 41, 17,
// 18 and 17 objects per join (530 and 1 433 before the scratch was pooled;
// the L1 join 24 636 before its one-point batch and quadrant set were),
// and the bounds leave room for a
// garbage collection emptying the pool mid-measurement. Under -race
// sync.Pool drops items at random, so the runs execute but the counts are
// not checked.
func TestWarmAllocs(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	build := func(pts []rtree.PointEntry) *Index {
		rp := make([]Point, len(pts))
		for i, e := range pts {
			rp[i] = Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
		}
		ix, err := eng.BuildIndex(rp, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	u20pts := workload.Uniform(20000, 1002)
	u20, g20 := build(u20pts), build(workload.GaussianClusters(20000, 10, 1000, 1003))
	u4, g4 := build(workload.Uniform(4000, 1000)), build(workload.GaussianClusters(4000, 10, 1000, 1001))
	c := u20pts[0].P
	window := &Rect{
		MinX: math.Max(0, c.X-300), MinY: math.Max(0, c.Y-300),
		MaxX: math.Min(workload.Domain, c.X+300), MaxY: math.Min(workload.Domain, c.Y+300),
	}
	for _, tc := range []struct {
		name  string
		q, p  *Index
		qry   Query
		limit float64
		runs  int
	}{
		{"window", u20, g20, Query{Region: window}, 100, 20},
		{"full-obj", u4, g4, Query{Algorithm: OBJ}, 100, 20},
		{"full-gabriel", u4, g4, Query{}, 100, 20},
		{"l1-full", u4, g4, Query{Metric: L1}, 150, 1}, // 0.3 s a join
	} {
		t.Run(tc.name, func(t *testing.T) {
			drain := func() {
				n := 0
				for _, err := range eng.Run(bg, tc.q, tc.p, tc.qry) {
					if err != nil {
						t.Fatal(err)
					}
					n++
				}
				if n == 0 {
					t.Fatal("the join yields no pair")
				}
			}
			drain() // warm the pool and the scratch
			allocs := testing.AllocsPerRun(tc.runs, drain)
			t.Logf("%s: %.0f allocations per join", tc.name, allocs)
			if !raceEnabled && allocs > tc.limit {
				t.Errorf("%s: %.0f allocations per join, want at most %.0f", tc.name, allocs, tc.limit)
			}
		})
	}
}
