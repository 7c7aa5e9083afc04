package rcj

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/rtree"
	"repro/internal/workload"
)

// BenchmarkLeafKernels measures the warm join paths: every page resident,
// so per-op cost is decode + filter + verify CPU work — the columnar leaf
// representation, the bulk distance pass, and the leaf verify kernel, with
// no I/O in the loop.
//
//   - selfjoin/warm and join/warm: the R-tree's self-join over one opened
//     index and binary join over two, forced to OBJ (blob decode is paid
//     once per pool miss, amortized to ~zero warm). Live, forced and
//     fanned-out full joins run this kernel.
//   - gabriel-selfjoin/warm and gabriel-join/warm: the same joins as the
//     planner runs them, Query{} on sealed indexes: one scan of each tree
//     and one exact Delaunay triangulation (rule=unbounded-gabriel).
//   - topk10/warm: the binary join under a global TopK 10 as the planner
//     runs it on sealed indexes (rule=ranked-gabriel): one scan of each
//     tree, then the short Gabriel edges on a bucket grid.
//   - obj-topk10/warm and maxd/warm: the binary join forced to OBJ under a
//     TopK 10, and planned under a MaxDiameter of about one point spacing
//     — the R-tree's bounded filter, which tests the bound before it scans
//     or seeds a query point's pruners. Live, weighted and windowed top-k
//     run this kernel.
//   - gauss-topk10/warm: the planned TopK 10 on a pair shaped like the
//     embedded benchmark's, 20k points in 10 Gaussian clusters (sigma 1000)
//     against 20k uniform, built in memory.
//   - gauss-join/warm and gauss-selfjoin/warm: the planned full join and
//     self-join (rule=unbounded-gabriel) on the embedded benchmark's
//     shapes, 4k Gaussian points against 4k uniform and the 4k Gaussian
//     points alone, built the same way.
//
// The Gaussian sets drop the samples the generator clamps onto the
// domain's edges, as the embedded benchmark does.
//
// The buffer pool is sized above the working set: unlike
// BenchmarkJoinBackends, which keeps the pool small to exercise the
// backends, this is the kernels' steady state.
func BenchmarkLeafKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	ps := randomPoints(rng, 3000)
	qs := randomPoints(rng, 3000)

	dir := b.TempDir()
	paths := map[string]string{"p": filepath.Join(dir, "p.rcjx"), "q": filepath.Join(dir, "q.rcjx")}
	{
		eng := NewEngine(EngineConfig{})
		ixP, err := eng.BuildIndex(ps, IndexConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ixQ, err := eng.BuildIndex(qs, IndexConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for ix, side := range map[*Index]string{ixP: "p", ixQ: "q"} {
			if err := ix.Save(paths[side]); err != nil {
				b.Fatal(err)
			}
		}
		ixP.Close()
		ixQ.Close()
	}

	ctx := context.Background()
	open := func(b *testing.B, eng *Engine, path string) *Index {
		b.Helper()
		ix, err := eng.OpenIndex(path, IndexConfig{Backend: BackendMem})
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}

	// warm runs qry once to fault every page in, then times it.
	warm := func(b *testing.B, eng *Engine, q, p *Index, qry Query) {
		b.Helper()
		if _, _, err := eng.RunCollect(ctx, q, p, qry); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.RunCollect(ctx, q, p, qry); err != nil {
				b.Fatal(err)
			}
		}
	}

	obj := Query{Algorithm: OBJ, ForceAlgorithm: true}
	for _, self := range []struct {
		name string
		qry  Query
	}{
		{"selfjoin/warm", obj},
		{"gabriel-selfjoin/warm", Query{}},
	} {
		b.Run(self.name, func(b *testing.B) {
			eng := NewEngine(EngineConfig{})
			ix := open(b, eng, paths["p"])
			defer ix.Close()
			warm(b, eng, ix, ix, self.qry)
		})
	}
	for _, binary := range []struct {
		name string
		qry  Query
	}{
		{"join/warm", obj},
		{"gabriel-join/warm", Query{}},
		{"topk10/warm", Query{TopK: 10}},
		{"obj-topk10/warm", Query{TopK: 10, Algorithm: OBJ, ForceAlgorithm: true}},
		{"maxd/warm", Query{MaxDiameter: 15}},
	} {
		b.Run(binary.name, func(b *testing.B) {
			eng := NewEngine(EngineConfig{})
			ixP := open(b, eng, paths["p"])
			defer ixP.Close()
			ixQ := open(b, eng, paths["q"])
			defer ixQ.Close()
			warm(b, eng, ixQ, ixP, binary.qry)
		})
	}
	// build indexes pts in memory, clamped samples dropped.
	build := func(b *testing.B, eng *Engine, pts []rtree.PointEntry) *Index {
		b.Helper()
		rp := make([]Point, 0, len(pts))
		for _, e := range pts {
			if e.P.X > 0 && e.P.X < workload.Domain && e.P.Y > 0 && e.P.Y < workload.Domain {
				rp = append(rp, Point{X: e.P.X, Y: e.P.Y, ID: int64(len(rp))})
			}
		}
		ix, err := eng.BuildIndex(rp, IndexConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	for _, g := range []struct {
		name string
		n    int
		self bool
		qry  Query
	}{
		{"gauss-topk10/warm", 20000, false, Query{TopK: 10}},
		{"gauss-join/warm", 4000, false, Query{}},
		{"gauss-selfjoin/warm", 4000, true, Query{}},
	} {
		b.Run(g.name, func(b *testing.B) {
			eng := NewEngine(EngineConfig{})
			p := build(b, eng, workload.GaussianClusters(g.n, 10, 1000, 2))
			defer p.Close()
			q := p
			if !g.self {
				q = build(b, eng, workload.Uniform(g.n, 1))
				defer q.Close()
			}
			warm(b, eng, q, p, g.qry)
		})
	}
}
