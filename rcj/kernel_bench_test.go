package rcj

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// BenchmarkLeafKernels measures the warm join path the leaf kernels serve:
// every page resident, so per-op cost is decode + filter + verify CPU work —
// the columnar leaf representation, the bulk distance pass, and the leaf
// verify kernel, with no I/O in the loop.
//
//   - selfjoin/warm: the self-join over one opened index.
//   - join/warm-v2 and join/warm-v3: the binary join over two opened
//     indexes, from the raw-page and the packed format — identical results,
//     so any gap between them is pure blob-decode cost (paid once per pool
//     miss, amortized to ~zero warm).
//
// The buffer pool is sized above the working set: unlike
// BenchmarkJoinBackends, which keeps the pool small to exercise the
// backends, this is the kernels' steady state.
func BenchmarkLeafKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	ps := randomPoints(rng, 3000)
	qs := randomPoints(rng, 3000)

	dir := b.TempDir()
	paths := map[string]string{
		"v2-p": filepath.Join(dir, "p2.rcjx"), "v2-q": filepath.Join(dir, "q2.rcjx"),
		"v3-p": filepath.Join(dir, "p3.rcjx"), "v3-q": filepath.Join(dir, "q3.rcjx"),
	}
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
			if err := ix.Save(paths["v2-"+side]); err != nil {
				b.Fatal(err)
			}
			if err := ix.SavePacked(paths["v3-"+side]); err != nil {
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

	b.Run("selfjoin/warm", func(b *testing.B) {
		eng := NewEngine(EngineConfig{})
		ix := open(b, eng, paths["v2-p"])
		defer ix.Close()
		if _, _, err := eng.RunCollect(ctx, ix, ix, Query{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.RunCollect(ctx, ix, ix, Query{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, format := range []string{"v2", "v3"} {
		format := format
		b.Run(fmt.Sprintf("join/warm-%s", format), func(b *testing.B) {
			eng := NewEngine(EngineConfig{})
			ixP := open(b, eng, paths[format+"-p"])
			defer ixP.Close()
			ixQ := open(b, eng, paths[format+"-q"])
			defer ixQ.Close()
			if _, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
