package rcj

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestSavePackedRoundTrip is the v2↔v3 equivalence gate: the same index
// saved both ways must open on every backend (mem, file, http) with
// identical joins, and re-saving the packed copy as v2 must reproduce the v2
// file byte for byte — the packed blobs decode to the exact raw page image.
func TestSavePackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := randomPoints(rng, 700)
	ix := mustIndex(t, pts, IndexConfig{})
	dir := t.TempDir()
	v2Path := filepath.Join(dir, "ix-v2.rcjx")
	v3Path := filepath.Join(dir, "ix-v3.rcjx")
	if err := ix.Save(v2Path); err != nil {
		t.Fatal(err)
	}
	if err := ix.SavePacked(v3Path); err != nil {
		t.Fatal(err)
	}
	v2Bytes, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	v3Bytes, err := os.ReadFile(v3Path)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform-random ys barely compress (XOR deltas of unrelated doubles), so
	// the bound here is looser than the sorted-data ratio in package storage.
	if len(v3Bytes) >= len(v2Bytes)*85/100 {
		t.Fatalf("packed index %d bytes vs v2 %d: expected < 85%%", len(v3Bytes), len(v2Bytes))
	}
	if sb, err := storage.ReadSuperblockFile(v3Path); err != nil || !sb.Packed() {
		t.Fatalf("packed superblock: %+v, %v", sb, err)
	}
	if !IsIndexFile(v3Path) {
		t.Fatal("IsIndexFile(packed) = false")
	}

	wantPairs, _, err := testEng.RunCollect(bg, ix, ix, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			re := openOn(t, v3Path, be)
			got, _, err := testEng.RunCollect(bg, re, re, Query{SortByDiameter: true})
			if err != nil {
				t.Fatal(err)
			}
			equalPairs(t, "packed "+be.String(), got, wantPairs)

			// Byte identity: decompress → re-save as v2 → the original v2 file.
			checkResaves(t, "v3 → open("+be.String()+") → v2", re.Save, v2Bytes)
			// The join plus the re-save pass over all pages at least twice, so
			// compare against the unpacked transfer volume for the same two
			// passes: packed fetches must stay under it.
			if st, ok := re.RemoteStats(); ok && (st.BytesFetched == 0 || int(st.BytesFetched) >= 2*len(v2Bytes)) {
				t.Fatalf("fetched %d bytes over a %d-byte packed file (v2 is %d) — blobs not serving compressed",
					st.BytesFetched, len(v3Bytes), len(v2Bytes))
			}
			// And the packed form itself is deterministic: re-saving packed
			// reproduces the v3 file.
			checkResaves(t, "v3 → open("+be.String()+") → v3", re.SavePacked, v3Bytes)
		})
	}
}

// goldenV23Points regenerates the deterministic pointset the committed
// testdata/golden_v2.rcjx and golden_v3.rcjx fixtures were built from
// (seed 11, n=250) — both fixtures hold the same index, saved in each format.
func goldenV23Points() []Point {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 250)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(i)}
	}
	return pts
}

// TestGoldenV2V3Fixtures is the on-disk compatibility gate for the current
// formats: committed v2 and packed-v3 fixtures must keep opening on every
// backend with joins identical to a fresh build, and both must re-save to
// exactly the committed v2 bytes — any codec or writer drift that changes
// the bits fails here.
func TestGoldenV2V3Fixtures(t *testing.T) {
	fresh := mustIndex(t, goldenV23Points(), IndexConfig{})
	wantPairs, _, err := testEng.RunCollect(bg, fresh, fresh, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	v2Bytes, err := os.ReadFile("testdata/golden_v2.rcjx")
	if err != nil {
		t.Fatal(err)
	}
	for _, golden := range []string{"testdata/golden_v2.rcjx", "testdata/golden_v3.rcjx"} {
		name := filepath.Base(golden)
		if !IsIndexFile(golden) {
			t.Fatalf("IsIndexFile(%s) = false", name)
		}
		for _, be := range allBackends {
			t.Run(name+"/"+be.String(), func(t *testing.T) {
				ix := openOn(t, golden, be)
				got, _, err := testEng.RunCollect(bg, ix, ix, Query{SortByDiameter: true})
				if err != nil {
					t.Fatal(err)
				}
				equalPairs(t, name, got, wantPairs)
				// Both fixtures hold the same index: either re-saves to the
				// committed v2 bytes.
				checkResaves(t, name+" → v2", ix.Save, v2Bytes)
			})
		}
	}
	t.Run("v3_decodes_to_v2_bytes", func(t *testing.T) {
		checkResaves(t, "committed golden_v3 → v2", openOn(t, "testdata/golden_v3.rcjx", BackendMem).Save, v2Bytes)
	})
}

// TestSavePackedCrossFormatJoin joins a v2-opened index against a v3-opened
// index — mixed formats in one engine must interoperate.
func TestSavePackedCrossFormatJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps, qs := randomPoints(rng, 400), randomPoints(rng, 350)
	ixP, ixQ := mustIndex(t, ps, IndexConfig{}), mustIndex(t, qs, IndexConfig{})
	dir := t.TempDir()
	pPath, qPath := filepath.Join(dir, "p.rcjx"), filepath.Join(dir, "q.rcjx")
	if err := ixP.Save(pPath); err != nil {
		t.Fatal(err)
	}
	if err := ixQ.SavePacked(qPath); err != nil {
		t.Fatal(err)
	}
	wantPairs, wantStats, wantErr := testEng.RunCollect(bg, ixQ, ixP, Query{})
	want := collectSorted(t, wantPairs, wantStats, wantErr)

	reP, err := OpenIndex(pPath, IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer reP.Close()
	reQ, err := OpenIndex(qPath, IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer reQ.Close()
	gotPairs, gotStats, gotErr := testEng.RunCollect(bg, reQ, reP, Query{})
	got := collectSorted(t, gotPairs, gotStats, gotErr)
	equalPairs(t, "mixed formats", got, want)
}
