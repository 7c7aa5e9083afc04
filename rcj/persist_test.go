package rcj

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
)

// allBackends are the substrates every saved index must open on; the
// persistence tests are tables over (fixture, backend).
var allBackends = []Backend{BackendMem, BackendFile, BackendHTTP}

// indexSource names the saved index at path for backend be: the path itself
// for the local substrates, a URL on a range-serving httptest origin over
// its directory for http.
func indexSource(t *testing.T, path string, be Backend) string {
	t.Helper()
	if be != BackendHTTP {
		return path
	}
	return serveDir(t, filepath.Dir(path), 0).URL + "/" + filepath.Base(path)
}

// openOn opens the saved index at path on backend be with a private pool.
func openOn(t *testing.T, path string, be Backend) *Index {
	t.Helper()
	ix, err := OpenIndex(indexSource(t, path, be), IndexConfig{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if ix.Backend() != be {
		t.Fatalf("Backend() = %s, want %s", ix.Backend(), be)
	}
	return ix
}

// checkResaves saves ix with save and compares the file with want.
func checkResaves(t *testing.T, what string, save func(string) error, want []byte) {
	t.Helper()
	resaved := filepath.Join(t.TempDir(), "resaved.rcjx")
	if err := save(resaved); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: re-saved file differs from the original (%d vs %d bytes)", what, len(got), len(want))
	}
}

func collectSorted(t *testing.T, pairs []Pair, stats Stats, err error) []Pair {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	SortPairsByDiameter(pairs)
	return pairs
}

func equalPairs(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestSaveOpenRoundTrip is the acceptance test: build → Save → OpenIndex in
// a fresh Engine → identical join output to the in-memory build, for
// INJ/OBJ and the self-join, on every backend.
func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := randomPoints(rng, 400)
	qs := randomPoints(rng, 350)

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

	ctx := context.Background()
	algs := map[string]Algorithm{"inj": INJ, "obj": OBJ}
	want := map[string][]Pair{}
	for name, alg := range algs {
		pairs, st, err := build.RunCollect(ctx, builtQ, builtP, Query{Algorithm: alg, ForceAlgorithm: true})
		want[name] = collectSorted(t, pairs, st, err)
	}
	selfPairs, st, err := build.RunCollect(ctx, builtP, builtP, Query{})
	want["self"] = collectSorted(t, selfPairs, st, err)
	builtP.Close()
	builtQ.Close()

	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			eng := NewEngine(EngineConfig{BufferPages: 128})
			ixP, err := eng.OpenIndex(indexSource(t, pathP, be), IndexConfig{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			defer ixP.Close()
			ixQ, err := eng.OpenIndex(indexSource(t, pathQ, be), IndexConfig{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			defer ixQ.Close()
			if ixP.Len() != len(ps) || ixQ.Len() != len(qs) {
				t.Fatalf("reopened sizes %d/%d, want %d/%d", ixP.Len(), ixQ.Len(), len(ps), len(qs))
			}
			for name, alg := range algs {
				pairs, st, err := eng.RunCollect(ctx, ixQ, ixP, Query{Algorithm: alg, ForceAlgorithm: true})
				equalPairs(t, name, collectSorted(t, pairs, st, err), want[name])
			}
			pairs, st, err := eng.RunCollect(ctx, ixP, ixP, Query{})
			equalPairs(t, "self", collectSorted(t, pairs, st, err), want["self"])

			// Points round-trip too (leaf order may differ from input order).
			got, err := ixP.Points()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ps) {
				t.Fatalf("Points() = %d, want %d", len(got), len(ps))
			}
		})
	}
}

// TestOpenIndexConcurrentJoins runs several joins at once over one reopened
// index pair sharing the engine's sharded pool — the cold-start serving
// scenario — and checks every join sees the full result set. Run with -race.
func TestOpenIndexConcurrentJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := randomPoints(rng, 300)
	qs := randomPoints(rng, 300)
	dir := t.TempDir()
	pathP := filepath.Join(dir, "p.rcjx")
	pathQ := filepath.Join(dir, "q.rcjx")
	{
		eng := NewEngine(EngineConfig{})
		ixP, err := eng.BuildIndex(ps, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ixQ, err := eng.BuildIndex(qs, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pairs, st, err := eng.RunCollect(context.Background(), ixQ, ixP, Query{})
		wantLen := len(collectSorted(t, pairs, st, err))
		if wantLen == 0 {
			t.Fatal("test wants a non-empty join")
		}
		if err := ixP.Save(pathP); err != nil {
			t.Fatal(err)
		}
		if err := ixQ.Save(pathQ); err != nil {
			t.Fatal(err)
		}
		testConcurrentOpens(t, pathP, pathQ, wantLen)
	}
}

func testConcurrentOpens(t *testing.T, pathP, pathQ string, wantLen int) {
	t.Helper()
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			eng := NewEngine(EngineConfig{BufferPages: 64}) // small: force eviction traffic
			ixP, err := eng.OpenIndex(indexSource(t, pathP, be), IndexConfig{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			defer ixP.Close()
			ixQ, err := eng.OpenIndex(indexSource(t, pathQ, be), IndexConfig{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			defer ixQ.Close()
			const workers = 6
			var wg sync.WaitGroup
			errs := make([]error, workers)
			lens := make([]int, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					opts := Query{}
					if w%2 == 1 {
						opts.Parallelism = 2
					}
					pairs, _, err := eng.RunCollect(context.Background(), ixQ, ixP, opts)
					errs[w], lens[w] = err, len(pairs)
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				if lens[w] != wantLen {
					t.Fatalf("worker %d: %d pairs, want %d", w, lens[w], wantLen)
				}
			}
		})
	}
}

// TestOpenIndexCorruption checks that every class of damaged file fails
// OpenIndex with the right typed error and no panic.
func TestOpenIndexCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := mustIndex(t, randomPoints(rng, 200), IndexConfig{})
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.rcjx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := func(t *testing.T, f func(b []byte) []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "damaged.rcjx")
		if err := os.WriteFile(p, f(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		mut  func(b []byte) []byte
		want error
	}{
		{"truncated pages", func(b []byte) []byte { return b[:len(b)-512] }, storage.ErrTruncated},
		{"truncated superblock", func(b []byte) []byte { return b[:40] }, storage.ErrTruncated},
		{"wrong magic", func(b []byte) []byte { b[0] = 'Z'; return b }, storage.ErrBadMagic},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:], storage.FormatVersion3+1)
			return b
		}, storage.ErrBadVersion},
		{"bad checksum", func(b []byte) []byte { b[28] ^= 0x01; return b }, storage.ErrBadChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := damage(t, tc.mut)
			if _, err := OpenIndex(p, IndexConfig{}); !errors.Is(err, tc.want) {
				t.Fatalf("OpenIndex = %v, want %v", err, tc.want)
			}
			eng := NewEngine(EngineConfig{})
			if _, err := eng.OpenIndex(p, IndexConfig{}); !errors.Is(err, tc.want) {
				t.Fatalf("Engine.OpenIndex = %v, want %v", err, tc.want)
			}
		})
	}
	t.Run("page size mismatch", func(t *testing.T) {
		if _, err := OpenIndex(path, IndexConfig{PageSize: 2048}); !errors.Is(err, storage.ErrPageSizeMismatch) {
			t.Fatalf("OpenIndex = %v, want ErrPageSizeMismatch", err)
		}
	})
	t.Run("metadata from another build", func(t *testing.T) {
		// Re-seal a superblock whose MBR disagrees with the pages.
		b := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint64(b[36:], binary.LittleEndian.Uint64(b[36:])^0x1)
		sb, err := storage.DecodeSuperblock(b[:storage.SuperblockSize])
		if !errors.Is(err, storage.ErrBadChecksum) {
			t.Fatalf("tamper not caught by checksum: %v (%+v)", err, sb)
		}
	})
}
