package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// packedBackends are the local backends a packed (v3) index must open on.
func packedBackends() []Backend { return []Backend{BackendMem, BackendFile} }

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

// TestPackedIndexFileBackends writes the same pager as v2 and packed v3 and
// checks: the v3 file is materially smaller, opens on every local backend,
// and every page reads back byte-identical to the v2 image.
func TestPackedIndexFileBackends(t *testing.T) {
	const numPages = 6
	src := newPackedTestPager(t, numPages)
	want := packedTestSuperblock(numPages)
	dir := t.TempDir()
	v2Path, v3Path := filepath.Join(dir, "v2.rcjx"), filepath.Join(dir, "v3.rcjx")

	sbV2 := want
	sbV2.Version = FormatVersion2
	sbV2.Flags = 0
	if err := WriteIndexFile(v2Path, sbV2, src); err != nil {
		t.Fatal(err)
	}
	if err := WriteIndexFile(v3Path, want, src); err != nil {
		t.Fatal(err)
	}
	v2Info, _ := os.Stat(v2Path)
	v3Info, _ := os.Stat(v3Path)
	if v3Info.Size() >= v2Info.Size()*3/4 {
		t.Fatalf("packed file %d bytes vs v2 %d: expected < 75%%", v3Info.Size(), v2Info.Size())
	}

	want.Flags = FlagPackedPages // the writer sets the packed flag itself
	buf, ref := make([]byte, want.PageSize), make([]byte, want.PageSize)
	for _, be := range packedBackends() {
		t.Run(be.String(), func(t *testing.T) {
			pager, sb, err := OpenIndexFile(v3Path, be)
			if err != nil {
				t.Fatal(err)
			}
			defer pager.Close()
			if sb != want {
				t.Fatalf("superblock %+v, want %+v", sb, want)
			}
			if pager.NumPages() != numPages || pager.PageSize() != want.PageSize {
				t.Fatalf("pager shape %d×%d", pager.NumPages(), pager.PageSize())
			}
			for i := 0; i < numPages; i++ {
				if err := pager.ReadPage(PageID(i), buf); err != nil {
					t.Fatal(err)
				}
				if err := src.ReadPage(PageID(i), ref); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, ref) {
					t.Fatalf("page %d decoded differently from the raw image", i)
				}
			}
			if err := pager.ReadPage(PageID(numPages), buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range read = %v", err)
			}
			if be != BackendMem {
				if _, err := pager.Allocate(); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("Allocate = %v, want ErrReadOnly", err)
				}
				if err := pager.WritePage(0, buf); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("WritePage = %v, want ErrReadOnly", err)
				}
			}
		})
	}
}

// TestPackedBitFlips corrupts single bytes of a packed file — in a blob, the
// page directory, and the checksum table — and checks every backend refuses
// the damaged page with a typed error (eagerly at open for mem, lazily at
// read for file).
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
	dbuf := pristine[dirOff : dirOff+int64(PageDirSize(numPages))]
	dir, err := DecodePageDir(dbuf, sb)
	if err != nil {
		t.Fatal(err)
	}

	damage := func(t *testing.T, off int64) string {
		t.Helper()
		b := append([]byte(nil), pristine...)
		b[off] ^= 0x10
		damaged := filepath.Join(t.TempDir(), "damaged.rcjx")
		if err := os.WriteFile(damaged, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return damaged
	}
	typedErr := func(err error) bool {
		return errors.Is(err, ErrBadChecksum) || errors.Is(err, ErrCorrupt)
	}

	const page = 1
	for _, be := range packedBackends() {
		t.Run(fmt.Sprintf("blob_%s", be), func(t *testing.T) {
			damaged := damage(t, int64(dir[page])+3)
			pager, _, err := OpenIndexFile(damaged, be)
			if be == BackendMem {
				if !typedErr(err) {
					t.Fatalf("mem open = %v, want checksum/corrupt error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("lazy open = %v", err)
			}
			defer pager.Close()
			buf := make([]byte, sb.PageSize)
			for i := 0; i < numPages; i++ {
				err := pager.ReadPage(PageID(i), buf)
				if i == page {
					if !typedErr(err) {
						t.Fatalf("read damaged page = %v, want checksum/corrupt error", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("read clean page %d: %v", i, err)
				}
			}
		})
	}
	t.Run("directory", func(t *testing.T) {
		damaged := damage(t, dirOff+4)
		for _, be := range packedBackends() {
			if _, _, err := OpenIndexFile(damaged, be); !typedErr(err) {
				t.Fatalf("%s open with corrupt directory = %v", be, err)
			}
		}
	})
	t.Run("table", func(t *testing.T) {
		damaged := damage(t, int64(dir[numPages])+1)
		for _, be := range packedBackends() {
			if _, _, err := OpenIndexFile(damaged, be); !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("%s open with corrupt table = %v", be, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		short := filepath.Join(t.TempDir(), "short.rcjx")
		if err := os.WriteFile(short, pristine[:len(pristine)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenIndexFile(short, BackendMem); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated open = %v, want ErrTruncated", err)
		}
	})
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
