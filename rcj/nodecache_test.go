package rcj

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestNodeCacheEquivalence opens a saved index pair twice — once on an engine
// with the decoded-node cache, once without — under a deliberately tiny
// buffer pool, and checks the joins are identical pair for pair while the
// cached engine actually served pool misses from the cache.
func TestNodeCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ps := randomPoints(rng, 500)
	qs := randomPoints(rng, 450)

	build := NewEngine(EngineConfig{})
	builtP, err := build.BuildIndex(ps, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	builtQ, err := build.BuildIndex(qs, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathP := filepath.Join(dir, "p.rcjx")
	pathQ := filepath.Join(dir, "q.rcjx")
	if err := builtP.Save(pathP); err != nil {
		t.Fatal(err)
	}
	if err := builtQ.Save(pathQ); err != nil {
		t.Fatal(err)
	}
	builtP.Close()
	builtQ.Close()

	ctx := context.Background()
	run := func(t *testing.T, nodeCache int) ([]Pair, *Engine) {
		t.Helper()
		// 8 pages of pool: nearly every access is a miss, so the node cache
		// is on the hot path rather than shadowed by the pool.
		eng := NewEngine(EngineConfig{BufferPages: 8, NodeCachePages: nodeCache})
		ixP, err := eng.OpenIndex(pathP, IndexConfig{Backend: BackendFile})
		if err != nil {
			t.Fatal(err)
		}
		defer ixP.Close()
		ixQ, err := eng.OpenIndex(pathQ, IndexConfig{Backend: BackendFile})
		if err != nil {
			t.Fatal(err)
		}
		defer ixQ.Close()
		pairs, st, err := eng.RunCollect(ctx, ixQ, ixP, Query{Algorithm: OBJ, ForceAlgorithm: true})
		return collectSorted(t, pairs, st, err), eng
	}

	want, plain := run(t, 0)
	if h, _ := plain.NodeCacheStats(); h != 0 {
		t.Fatalf("disabled cache reported %d hits", h)
	}
	got, cached := run(t, 1<<16)
	equalPairs(t, "node-cache", got, want)
	hits, misses := cached.NodeCacheStats()
	if hits == 0 {
		t.Fatalf("node cache never hit (misses=%d) — pool misses are not reaching it", misses)
	}
}

// TestNodeCacheInvalidatedOnClose reopens the same path twice under one
// engine and checks the second index starts cold: its generation is fresh, so
// no stale nodes of the closed index can serve its reads.
func TestNodeCacheInvalidatedOnClose(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	build := NewEngine(EngineConfig{})
	built, err := build.BuildIndex(randomPoints(rng, 300), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.rcjx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	built.Close()

	eng := NewEngine(EngineConfig{BufferPages: 4, NodeCachePages: 1 << 16})
	ix1, err := eng.OpenIndex(path, IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix1.Points(); err != nil {
		t.Fatal(err)
	}
	if err := ix1.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := eng.OpenIndex(path, IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	hitsBefore, _ := eng.NodeCacheStats()
	if _, err := ix2.Points(); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := eng.NodeCacheStats()
	if hitsAfter != hitsBefore {
		t.Fatalf("reopened index hit %d stale cache entries", hitsAfter-hitsBefore)
	}
}
