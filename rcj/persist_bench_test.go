package rcj

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkJoinBackends compares the three pager backends a saved index can
// be served from, cold and warm:
//
//   - cold: a fresh Engine opens both index files and runs one join — the
//     cold-start serving path (open cost + every page faulted from the
//     backend into an empty buffer pool).
//   - warm: one Engine reuses its buffer pool across joins — steady-state
//     serving, where the backend only sees capacity misses.
//
// The buffer pool is deliberately smaller than the working set so the warm
// case still exercises the backend, not just the pool.
func BenchmarkJoinBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	ps := randomPoints(rng, 3000)
	qs := randomPoints(rng, 3000)

	dir := b.TempDir()
	pathP := filepath.Join(dir, "p.rcjx")
	pathQ := filepath.Join(dir, "q.rcjx")
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
		if err := ixP.Save(pathP); err != nil {
			b.Fatal(err)
		}
		if err := ixQ.Save(pathQ); err != nil {
			b.Fatal(err)
		}
		ixP.Close()
		ixQ.Close()
	}
	if fi, err := os.Stat(pathP); err == nil {
		b.Logf("index file: %d KiB", fi.Size()/1024)
	}

	ctx := context.Background()
	const bufferPages = 64 // < working set: warm joins still fault

	for _, be := range []Backend{BackendMem, BackendFile} {
		be := be
		b.Run(fmt.Sprintf("%s/open", be), func(b *testing.B) {
			// Open + close only: the cold-start reattach cost. mem pays a
			// full page-image load; file is O(1) in index size.
			eng := NewEngine(EngineConfig{BufferPages: bufferPages})
			for i := 0; i < b.N; i++ {
				ix, err := eng.OpenIndex(pathP, IndexConfig{Backend: be})
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
		b.Run(fmt.Sprintf("%s/cold", be), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := NewEngine(EngineConfig{BufferPages: bufferPages})
				ixP, err := eng.OpenIndex(pathP, IndexConfig{Backend: be})
				if err != nil {
					b.Fatal(err)
				}
				ixQ, err := eng.OpenIndex(pathQ, IndexConfig{Backend: be})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{}); err != nil {
					b.Fatal(err)
				}
				ixP.Close()
				ixQ.Close()
			}
		})
		b.Run(fmt.Sprintf("%s/warm", be), func(b *testing.B) {
			eng := NewEngine(EngineConfig{BufferPages: bufferPages})
			ixP, err := eng.OpenIndex(pathP, IndexConfig{Backend: be})
			if err != nil {
				b.Fatal(err)
			}
			defer ixP.Close()
			ixQ, err := eng.OpenIndex(pathQ, IndexConfig{Backend: be})
			if err != nil {
				b.Fatal(err)
			}
			defer ixQ.Close()
			if _, _, err := eng.RunCollect(ctx, ixQ, ixP, Query{}); err != nil {
				b.Fatal(err) // prime the pool outside the timer
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
