package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSuperblock() Superblock {
	return Superblock{
		Version:  FormatVersion,
		PageSize: DefaultPageSize,
		NumPages: 7,
		Root:     6,
		Height:   2,
		Count:    123,
		MBR:      [4]float64{-1.5, 0, 10000.25, 9999},
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := testSuperblock()
	buf := make([]byte, SuperblockSize)
	if err := EncodeSuperblock(sb, buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("round trip: got %+v, want %+v", got, sb)
	}
}

func TestSuperblockCorruption(t *testing.T) {
	valid := make([]byte, SuperblockSize)
	if err := EncodeSuperblock(testSuperblock(), valid); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	reseal := func(b []byte) { // recompute the CRC so deeper validation runs
		binary.LittleEndian.PutUint32(b[68:], crc32.ChecksumIEEE(b[:68]))
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"truncated", valid[:SuperblockSize-1], ErrTruncated},
		{"empty", nil, ErrTruncated},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) {
			binary.LittleEndian.PutUint16(b[8:], 99)
		}), ErrBadVersion},
		{"bad checksum", mutate(func(b []byte) { b[30] ^= 0xFF }), ErrBadChecksum},
		{"insane page size", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], 8)
			reseal(b)
		}), ErrCorrupt},
		{"root out of range", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[20:], 7) // == NumPages
			reseal(b)
		}), ErrCorrupt},
		{"zero height with entries", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[24:], 0)
			reseal(b)
		}), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSuperblock(tc.buf)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeSuperblock = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestPageTableRoundTrip(t *testing.T) {
	table := []uint32{0, 0xDEADBEEF, 42, 0xFFFFFFFF}
	buf := make([]byte, PageTableSize(len(table)))
	if err := EncodePageTable(table, buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePageTable(buf, len(table))
	if err != nil {
		t.Fatal(err)
	}
	for i := range table {
		if got[i] != table[i] {
			t.Fatalf("entry %d = %08x, want %08x", i, got[i], table[i])
		}
	}
	// Empty tables round-trip too (an empty index still carries a sealed
	// trailer).
	empty := make([]byte, PageTableSize(0))
	if err := EncodePageTable(nil, empty); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePageTable(empty, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableCorruption(t *testing.T) {
	table := []uint32{1, 2, 3}
	buf := make([]byte, PageTableSize(len(table)))
	if err := EncodePageTable(table, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePageTable(buf[:len(buf)-1], len(table)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated table = %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), buf...)
	bad[5] ^= 0x10
	if _, err := DecodePageTable(bad, len(table)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt table = %v, want ErrBadChecksum", err)
	}
	if _, err := DecodePageTable(buf, -1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative page count = %v, want ErrCorrupt", err)
	}
}

// TestV2PageBitFlips is the per-page corruption table: flip one bit inside
// each page of a v2 file and check every backend reports ErrBadChecksum
// naming exactly the offending page — at open for the eagerly-loading mem
// backend, at first read for the lazy file backend.
func TestV2PageBitFlips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.rcjx")
	want := writeTestIndexFile(t, path, 4)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	backends := []Backend{BackendMem, BackendFile}
	for page := 0; page < want.NumPages; page++ {
		for _, be := range backends {
			t.Run(fmt.Sprintf("page%d_%s", page, be), func(t *testing.T) {
				b := append([]byte(nil), pristine...)
				b[want.PageSize*(1+page)+123] ^= 0x04 // one flipped bit mid-page
				damaged := filepath.Join(t.TempDir(), "damaged.rcjx")
				if err := os.WriteFile(damaged, b, 0o644); err != nil {
					t.Fatal(err)
				}
				pager, _, err := OpenIndexFile(damaged, be)
				if be == BackendMem {
					if !errors.Is(err, ErrBadChecksum) {
						t.Fatalf("mem open = %v, want ErrBadChecksum", err)
					}
					if !strings.Contains(err.Error(), fmt.Sprintf("page %d", page)) {
						t.Fatalf("error does not name page %d: %v", page, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("lazy open = %v", err)
				}
				defer pager.Close()
				buf := make([]byte, want.PageSize)
				// Undamaged pages still read clean.
				for i := 0; i < want.NumPages; i++ {
					err := pager.ReadPage(PageID(i), buf)
					if i == page {
						if !errors.Is(err, ErrBadChecksum) {
							t.Fatalf("read damaged page = %v, want ErrBadChecksum", err)
						}
						if !strings.Contains(err.Error(), fmt.Sprintf("page %d", page)) {
							t.Fatalf("error does not name page %d: %v", page, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("read clean page %d: %v", i, err)
					}
				}
			})
		}
	}
	// A flipped bit in the table trailer itself fails the open everywhere.
	t.Run("table trailer", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[want.PageSize*(1+want.NumPages)+2] ^= 0x40
		damaged := filepath.Join(t.TempDir(), "damaged.rcjx")
		if err := os.WriteFile(damaged, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, be := range backends {
			if _, _, err := OpenIndexFile(damaged, be); !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("%s open with corrupt table = %v, want ErrBadChecksum", be, err)
			}
		}
	})
}

// TestV1StillOpens writes the legacy table-less format and checks it opens
// read-only on every backend — backward compatibility with pre-v2 indexes.
func TestV1StillOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.rcjx")
	src := NewMemPager(DefaultPageSize)
	const numPages = 5
	for i := 0; i < numPages; i++ {
		id, err := src.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := src.WritePage(id, bytes.Repeat([]byte{byte(i + 1)}, DefaultPageSize)); err != nil {
			t.Fatal(err)
		}
	}
	sb := Superblock{
		Version:  FormatVersion1,
		PageSize: DefaultPageSize,
		NumPages: numPages,
		Root:     numPages - 1,
		Height:   1,
		Count:    numPages * 3,
		MBR:      [4]float64{0, 0, 1, 1},
	}
	if err := WriteIndexFile(path, sb, src); err != nil {
		t.Fatal(err)
	}
	// The v1 layout has no trailer: the file ends with the last page.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(DefaultPageSize) * (1 + numPages); info.Size() != want {
		t.Fatalf("v1 file is %d bytes, want exactly %d (no trailer)", info.Size(), want)
	}
	if !SniffIndexFile(path) {
		t.Fatal("SniffIndexFile(v1) = false")
	}
	backends := []Backend{BackendMem, BackendFile}
	for _, be := range backends {
		t.Run(be.String(), func(t *testing.T) {
			pager, got, err := OpenIndexFile(path, be)
			if err != nil {
				t.Fatal(err)
			}
			defer pager.Close()
			if got != sb {
				t.Fatalf("superblock %+v, want %+v", got, sb)
			}
			buf := make([]byte, DefaultPageSize)
			for i := 0; i < numPages; i++ {
				if err := pager.ReadPage(PageID(i), buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i+1) {
					t.Fatalf("page %d contents differ", i)
				}
			}
		})
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"mem", BackendMem}, {"memory", BackendMem}, {"file", BackendFile}, {"http", BackendHTTP}, {"https", BackendHTTP}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "memory" && tc.in != "https" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, gone := range []string{"s3", "mmap"} {
		if _, err := ParseBackend(gone); err == nil {
			t.Fatalf("ParseBackend(%s) succeeded", gone)
		}
	}
}

// writeTestIndexFile builds a small page image with recognizable contents
// and writes it in the index format.
func writeTestIndexFile(t *testing.T, path string, numPages int) Superblock {
	t.Helper()
	src := NewMemPager(DefaultPageSize)
	for i := 0; i < numPages; i++ {
		id, err := src.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		page := bytes.Repeat([]byte{byte(i + 1)}, DefaultPageSize)
		if err := src.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	sb := Superblock{
		PageSize: DefaultPageSize,
		NumPages: numPages,
		Root:     PageID(numPages - 1),
		Height:   1,
		Count:    int64(numPages * 3),
		MBR:      [4]float64{0, 0, 1, 1},
	}
	if err := WriteIndexFile(path, sb, src); err != nil {
		t.Fatal(err)
	}
	sb.Version = FormatVersion // the writer emits the current version
	return sb
}

func TestIndexFileBackends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.rcjx")
	want := writeTestIndexFile(t, path, 5)

	backends := []Backend{BackendMem, BackendFile}
	for _, be := range backends {
		t.Run(be.String(), func(t *testing.T) {
			pager, sb, err := OpenIndexFile(path, be)
			if err != nil {
				t.Fatal(err)
			}
			defer pager.Close()
			if sb != want {
				t.Fatalf("superblock %+v, want %+v", sb, want)
			}
			if pager.NumPages() != want.NumPages || pager.PageSize() != want.PageSize {
				t.Fatalf("pager shape %d×%d", pager.NumPages(), pager.PageSize())
			}
			buf := make([]byte, want.PageSize)
			for i := 0; i < want.NumPages; i++ {
				if err := pager.ReadPage(PageID(i), buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i + 1)}, want.PageSize)) {
					t.Fatalf("page %d contents differ", i)
				}
			}
			if err := pager.ReadPage(PageID(want.NumPages), buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range read = %v", err)
			}
			if be != BackendMem { // the mem backend copies; copies stay writable
				if _, err := pager.Allocate(); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("Allocate on %s = %v, want ErrReadOnly", be, err)
				}
				if err := pager.WritePage(0, buf); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("WritePage on %s = %v, want ErrReadOnly", be, err)
				}
			}
			if st := pager.Stats(); st.Reads < int64(want.NumPages) {
				t.Fatalf("Stats.Reads = %d, want >= %d", st.Reads, want.NumPages)
			}
		})
	}
}

func TestOpenIndexFileTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.rcjx")
	writeTestIndexFile(t, path, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, DefaultPageSize + 10, SuperblockSize - 4, 0} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenIndexFile(path, BackendFile); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: OpenIndexFile = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReadSuperblockFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.rcjx")
	want := writeTestIndexFile(t, path, 3)
	got, err := ReadSuperblockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("superblock %+v, want %+v", got, want)
	}
	if !SniffIndexFile(path) {
		t.Fatal("SniffIndexFile(index) = false")
	}
	csv := filepath.Join(t.TempDir(), "points.csv")
	if err := os.WriteFile(csv, []byte("1,2.0,3.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if SniffIndexFile(csv) {
		t.Fatal("SniffIndexFile(csv) = true")
	}
}
