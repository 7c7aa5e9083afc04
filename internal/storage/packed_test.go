package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// newPackedTestPager builds a MemPager shaped like a real index: mostly leaf
// pages (sorted nearby coordinates, sequential ids — the compressible case)
// plus an internal-looking page that must fall back to raw.
func newPackedTestPager(t *testing.T, numPages int) *MemPager {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	src := NewMemPager(DefaultPageSize)
	page := make([]byte, DefaultPageSize)
	for i := 0; i < numPages; i++ {
		for j := range page {
			page[j] = 0
		}
		if i == numPages-1 { // one "internal" page: random payload, raw blob
			page[0] = 0
			binary.LittleEndian.PutUint16(page[2:], 9)
			rng.Read(page[4 : 4+9*36])
		} else {
			const count = 40
			page[0] = 1
			binary.LittleEndian.PutUint16(page[2:], count)
			x := float64(i) * 100
			for k := 0; k < count; k++ {
				x += rng.Float64()
				off := 4 + k*24
				binary.LittleEndian.PutUint64(page[off:], math.Float64bits(x))
				binary.LittleEndian.PutUint64(page[off+8:], math.Float64bits(50+rng.Float64()))
				binary.LittleEndian.PutUint64(page[off+16:], uint64(i*count+k))
			}
		}
		id, err := src.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := src.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

func packedTestSuperblock(numPages int) Superblock {
	return Superblock{
		Version:  FormatVersion3,
		PageSize: DefaultPageSize,
		NumPages: numPages,
		Root:     PageID(numPages - 1),
		Height:   2,
		Count:    40 * int64(numPages-1),
		MBR:      [4]float64{0, 50, 1000, 51},
	}
}

// TestPackedIndexFileBackends writes the v2 fixture's pages as packed v3 and
// checks: the v3 file is materially smaller, both files open on every
// backend with every page byte-identical to the source image, and either,
// re-saved, is the v3 file byte for byte.
func TestPackedIndexFileBackends(t *testing.T) {
	const numPages = 6
	src := newPackedTestPager(t, numPages)
	want := packedTestSuperblock(numPages)
	v3Path := filepath.Join(t.TempDir(), "v3.rcjx")
	if err := WriteIndexFile(v3Path, want, src); err != nil {
		t.Fatal(err)
	}
	v2Info, _ := os.Stat(v2Fixture)
	v3Info, _ := os.Stat(v3Path)
	if v3Info.Size() >= v2Info.Size()*3/4 {
		t.Fatalf("packed file %d bytes vs v2 %d: expected < 75%%", v3Info.Size(), v2Info.Size())
	}

	want.Flags = FlagPackedPages // the writer sets the packed flag itself
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			// The blobs decode to the exact raw image, and the v2 fixture's
			// verbatim pages are that image too: both re-pack to the v3 file.
			checkResaves(t, checkOpens(t, v3Path, want, src, be), want, v3Path)
			checkResaves(t, checkOpens(t, v2Fixture, v2Superblock(), src, be), want, v3Path)
		})
	}
}

// TestPackedBitFlips corrupts single bytes of a packed file — in a blob, the
// page directory, and the checksum table — and checks every backend refuses
// the damage with a typed error.
func TestPackedBitFlips(t *testing.T) {
	const numPages = 4
	src := newPackedTestPager(t, numPages)
	sb := packedTestSuperblock(numPages)
	path := filepath.Join(t.TempDir(), "v3.rcjx")
	if err := WriteIndexFile(path, sb, src); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := int64(sb.PageSize)
	dir, err := DecodePageDir(pristine[dirOff:dirOff+int64(PageDirSize(numPages))], sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range allBackends {
		t.Run(fmt.Sprintf("blob_%s", be), func(t *testing.T) {
			checkPageDamage(t, pristine, int64(dir[1])+3, 1, be)
		})
	}
	// Damage outside the pages fails the open itself, on every backend.
	for _, tc := range []struct {
		name string
		data func() []byte
		want []error
	}{
		{"directory", func() []byte { b := append([]byte(nil), pristine...); b[dirOff+4] ^= 0x10; return b },
			[]error{ErrBadChecksum, ErrCorrupt}},
		{"table", func() []byte { b := append([]byte(nil), pristine...); b[dir[numPages]+1] ^= 0x10; return b },
			[]error{ErrBadChecksum}},
		{"truncated", func() []byte { return pristine[:len(pristine)-5] }, []error{ErrTruncated}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			damaged := filepath.Join(t.TempDir(), "damaged.rcjx")
			if err := os.WriteFile(damaged, tc.data(), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, be := range allBackends {
				_, _, err := openOn(t, damaged, be)
				typed := false
				for _, want := range tc.want {
					typed = typed || errors.Is(err, want)
				}
				if !typed {
					t.Fatalf("%s open = %v, want one of %v", be, err, tc.want)
				}
			}
		})
	}
}

// TestPackedSuperblockFlags pins the flags rules: nonzero flags before v3 and
// wrong flag combinations on v3 are both corrupt.
func TestPackedSuperblockFlags(t *testing.T) {
	sb := testSuperblock()
	sb.Flags = FlagPackedPages
	if err := sb.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 with packed flag = %v, want ErrCorrupt", err)
	}
	sb = testSuperblock()
	sb.Version = FormatVersion3
	if err := sb.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v3 without packed flag = %v, want ErrCorrupt", err)
	}
	sb.Flags = FlagPackedPages
	if err := sb.Validate(); err != nil {
		t.Fatalf("v3 with packed flag = %v", err)
	}
	sb.Flags |= 1 << 5
	if err := sb.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v3 with unknown flag = %v, want ErrCorrupt", err)
	}
}

// TestPageDirRoundTrip covers the directory codec and its validation.
func TestPageDirRoundTrip(t *testing.T) {
	sb := Superblock{Version: FormatVersion3, Flags: FlagPackedPages, PageSize: 512, NumPages: 3}
	base := uint64(sb.PageSize) + uint64(PageDirSize(sb.NumPages))
	dir := []uint64{base, base + 100, base + 101, base + 101 + uint64(sb.PageSize)}
	buf := make([]byte, PageDirSize(sb.NumPages))
	if err := EncodePageDir(dir, buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePageDir(buf, sb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dir {
		if got[i] != dir[i] {
			t.Fatalf("offset %d: %d != %d", i, got[i], dir[i])
		}
	}

	if _, err := DecodePageDir(buf[:len(buf)-1], sb); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buffer = %v, want ErrTruncated", err)
	}
	flip := append([]byte(nil), buf...)
	flip[3] ^= 0x80
	if _, err := DecodePageDir(flip, sb); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped offset = %v, want ErrBadChecksum", err)
	}
	for _, bad := range [][]uint64{
		{base + 1, base + 101, base + 102, base + 200}, // first blob not after directory
		{base, base, base + 1, base + 2},               // empty blob
		{base, base + uint64(sb.PageSize) + 2, base + uint64(sb.PageSize) + 3, base + uint64(sb.PageSize) + 4}, // oversized blob
	} {
		b := make([]byte, PageDirSize(sb.NumPages))
		if err := EncodePageDir(bad, b); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePageDir(b, sb); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dir %v decoded, want ErrCorrupt", bad)
		}
	}
}
