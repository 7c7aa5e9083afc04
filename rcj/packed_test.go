package rcj

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestSavePackedRoundTrip is the one-writer gate: Save writes the packed
// format (v3), the deprecated SavePacked forward writes the same bytes, and
// the file — materially smaller than the verbatim page image — opens on
// every backend (mem, file, http) with identical joins and re-saves to
// itself byte for byte.
func TestSavePackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := randomPoints(rng, 700)
	ix := mustIndex(t, pts, IndexConfig{})
	path := filepath.Join(t.TempDir(), "ix.rcjx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	packed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkResaves(t, "SavePacked", ix.SavePacked, packed)
	sb, err := storage.ReadSuperblockFile(path)
	if err != nil || sb.Version != storage.FormatVersion3 || !sb.Packed() {
		t.Fatalf("saved superblock: %+v, %v", sb, err)
	}
	// What the verbatim v2 layout took for the same pages: header, pages,
	// checksum table. Uniform-random ys barely compress (XOR deltas of
	// unrelated doubles), so the bound is looser than the sorted-data ratio
	// in package storage.
	verbatim := sb.PageSize*(1+sb.NumPages) + storage.PageTableSize(sb.NumPages)
	if len(packed) >= verbatim*85/100 {
		t.Fatalf("packed index %d bytes vs %d verbatim: expected < 85%%", len(packed), verbatim)
	}
	if !IsIndexFile(path) {
		t.Fatal("IsIndexFile(packed) = false")
	}

	wantPairs, _, err := testEng.RunCollect(bg, ix, ix, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			re := openOn(t, path, be)
			got, _, err := testEng.RunCollect(bg, re, re, Query{SortByDiameter: true})
			if err != nil {
				t.Fatal(err)
			}
			equalPairs(t, "packed "+be.String(), got, wantPairs)
			checkResaves(t, "open("+be.String()+") → Save", re.Save, packed)
			// The join plus the re-save pass over all pages at least twice, so
			// compare against the verbatim transfer volume for the same two
			// passes: packed fetches must stay under it.
			if st, ok := re.RemoteStats(); ok && (st.BytesFetched == 0 || int(st.BytesFetched) >= 2*verbatim) {
				t.Fatalf("fetched %d bytes over a %d-byte packed file (%d verbatim) — blobs not serving compressed",
					st.BytesFetched, len(packed), verbatim)
			}
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

// TestGoldenV2V3Fixtures is the on-disk compatibility gate: the committed
// read-only v2 fixture and the packed v3 fixture must keep opening on every
// backend with joins identical to a fresh build, and both must re-save to
// exactly the committed v3 bytes — any codec or writer drift that changes
// the bits fails here.
func TestGoldenV2V3Fixtures(t *testing.T) {
	fresh := mustIndex(t, goldenV23Points(), IndexConfig{})
	wantPairs, _, err := testEng.RunCollect(bg, fresh, fresh, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	v3Bytes, err := os.ReadFile("testdata/golden_v3.rcjx")
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
				// committed v3 bytes.
				checkResaves(t, name+" → v3", ix.Save, v3Bytes)
			})
		}
	}
	// The v3 fixture's blobs decode to exactly the v2 fixture's verbatim
	// pages, under the same tree metadata.
	t.Run("v3_decodes_to_v2_bytes", func(t *testing.T) {
		v2Bytes, err := os.ReadFile("testdata/golden_v2.rcjx")
		if err != nil {
			t.Fatal(err)
		}
		pager, sb, err := storage.OpenIndexFile("testdata/golden_v3.rcjx", BackendMem)
		if err != nil {
			t.Fatal(err)
		}
		defer pager.Close()
		v2sb, err := storage.ReadSuperblockFile("testdata/golden_v2.rcjx")
		if err != nil {
			t.Fatal(err)
		}
		if v2sb.Version, v2sb.Flags = sb.Version, sb.Flags; v2sb != sb {
			t.Fatalf("v3 superblock %+v, v2 %+v", sb, v2sb)
		}
		page := make([]byte, sb.PageSize)
		for i := 0; i < sb.NumPages; i++ {
			if err := pager.ReadPage(storage.PageID(i), page); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(page, v2Bytes[sb.PageSize*(1+i):sb.PageSize*(2+i)]) {
				t.Fatalf("page %d of the v3 fixture differs from the v2 fixture's", i)
			}
		}
	})
}

// TestSavePackedCrossFormatJoin joins an index opened from a committed v2
// file against one saved by this build (v3) — mixed formats in one engine
// must interoperate.
func TestSavePackedCrossFormatJoin(t *testing.T) {
	ps, qs := countsCorpus()
	cfg := IndexConfig{PageSize: countsPageSize}
	ixP, ixQ := mustIndex(t, ps, cfg), mustIndex(t, qs, cfg)
	pPath := filepath.Join(t.TempDir(), "p.rcjx")
	if err := ixP.Save(pPath); err != nil {
		t.Fatal(err)
	}
	wantPairs, wantStats, wantErr := testEng.RunCollect(bg, ixQ, ixP, Query{})
	want := collectSorted(t, wantPairs, wantStats, wantErr)

	reP, err := OpenIndex(pPath, IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer reP.Close()
	reQ, err := OpenIndex(countsV2Files[0], IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer reQ.Close()
	gotPairs, gotStats, gotErr := testEng.RunCollect(bg, reQ, reP, Query{})
	got := collectSorted(t, gotPairs, gotStats, gotErr)
	equalPairs(t, "mixed formats", got, want)
}
