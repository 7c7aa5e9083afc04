package rcj

import (
	"math"
	"testing"

	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestWarmAllocs pins the recycled executor scratch: a warm join drained
// through Engine.Run allocates what its result and its plan need, not the
// filter heap, pruner sets, candidate batches and verify stack of every run
// again. Two shapes of the embedded benchmark: a window on G20k x U20k
// (which derives its own diameter bound) and a G4k x U4k full join on two
// workers; they measured 42 and 59 objects per join (530 and 1 433 before
// the scratch was pooled), and the bounds leave room for a garbage
// collection emptying the pool mid-measurement. Under -race sync.Pool drops
// items at random, so the runs execute but the counts are not checked.
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
	}{
		{"window", u20, g20, Query{Region: window}, 100},
		{"full-par2", u4, g4, Query{Parallelism: 2}, 200},
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
			allocs := testing.AllocsPerRun(20, drain)
			t.Logf("%s: %.0f allocations per join", tc.name, allocs)
			if !raceEnabled && allocs > tc.limit {
				t.Errorf("%s: %.0f allocations per join, want at most %.0f", tc.name, allocs, tc.limit)
			}
		})
	}
}
