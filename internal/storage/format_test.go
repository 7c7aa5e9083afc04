package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSuperblock() Superblock {
	return Superblock{
		Version:  FormatVersion2,
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

// allBackends are the substrates every format version must open on.
var allBackends = []Backend{BackendMem, BackendFile, BackendHTTP}

// openOn opens the index file at path on backend be: OpenIndexFile for the
// local substrates, OpenIndexURL against a range-serving httptest origin
// holding the same bytes for http.
func openOn(t *testing.T, path string, be Backend) (Pager, Superblock, error) {
	t.Helper()
	if be != BackendHTTP {
		return OpenIndexFile(path, be)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newFlakyIndexServer(data))
	t.Cleanup(srv.Close)
	return OpenIndexURL(srv.URL, fastCfg())
}

// checkOpens is one cell of the (format, backend) open table: the file
// written from src under want opens on be with that superblock and shape,
// every page reads back byte-identical to src, bounds are enforced, and the
// serving substrates refuse writes.
func checkOpens(t *testing.T, path string, want Superblock, src Pager, be Backend) Pager {
	t.Helper()
	pager, sb, err := openOn(t, path, be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pager.Close() })
	if sb != want {
		t.Fatalf("superblock %+v, want %+v", sb, want)
	}
	if pager.NumPages() != want.NumPages || pager.PageSize() != want.PageSize {
		t.Fatalf("pager shape %d×%d", pager.NumPages(), pager.PageSize())
	}
	buf, ref := make([]byte, want.PageSize), make([]byte, want.PageSize)
	for i := 0; i < want.NumPages; i++ {
		if err := pager.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if err := src.ReadPage(PageID(i), ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, ref) {
			t.Fatalf("page %d differs from the source image", i)
		}
	}
	if err := pager.ReadPage(PageID(want.NumPages), buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out-of-range read = %v", err)
	}
	if err := pager.ReadPage(0, buf[:1]); err == nil {
		t.Fatal("undersized read buffer accepted")
	}
	if be != BackendMem { // the mem backend copies; copies stay writable
		if _, err := pager.Allocate(); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Allocate on %s = %v, want ErrReadOnly", be, err)
		}
		if err := pager.WritePage(0, buf); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("WritePage on %s = %v, want ErrReadOnly", be, err)
		}
	}
	if st := pager.Stats(); st.Reads != int64(want.NumPages) {
		t.Fatalf("Stats.Reads = %d, want %d", st.Reads, want.NumPages)
	}
	return pager
}

// checkResaves writes an opened pager back out under sb, upgraded to the one
// version the writer emits, and compares the file with want: whatever
// substrate and format the pages came through, they are the same pages.
func checkResaves(t *testing.T, pager Pager, sb Superblock, want string) {
	t.Helper()
	resaved := filepath.Join(t.TempDir(), "resaved.rcjx")
	if err := WriteIndexFile(resaved, asV3(sb), pager); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("re-saved file differs from %s (%d vs %d bytes)", filepath.Base(want), len(got), len(wantBytes))
	}
}

// checkPageDamage is one cell of the (format, backend) corruption table:
// with the byte at off — inside page's stored bytes — flipped, backend be
// must refuse exactly that page with a typed error naming it (at open for
// the eagerly-loading mem backend, at first read for the lazy ones) and keep
// serving every other page.
func checkPageDamage(t *testing.T, pristine []byte, off int64, page PageID, be Backend) {
	t.Helper()
	b := append([]byte(nil), pristine...)
	b[off] ^= 0x04
	damaged := filepath.Join(t.TempDir(), "damaged.rcjx")
	if err := os.WriteFile(damaged, b, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s = %v, want a checksum/corrupt error", what, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("page %d", page)) {
			t.Fatalf("%s does not name page %d: %v", what, page, err)
		}
	}
	pager, sb, err := openOn(t, damaged, be)
	if be == BackendMem {
		refused("mem open", err)
		return
	}
	if err != nil {
		t.Fatalf("lazy open = %v", err)
	}
	defer pager.Close()
	buf := make([]byte, sb.PageSize)
	for i := PageID(0); int(i) < sb.NumPages; i++ {
		err := pager.ReadPage(i, buf)
		if i == page {
			refused("read of the damaged page", err)
		} else if err != nil {
			t.Fatalf("read clean page %d: %v", i, err)
		}
	}
}

// The committed legacy fixtures, written by the last build whose writer
// emitted v1 and v2: v1Fixture holds testPager(5) under v1Superblock,
// v2Fixture holds newPackedTestPager(6) under packedTestSuperblock(6) at v2.
const (
	v1Fixture = "testdata/v1.rcjx"
	v2Fixture = "testdata/v2.rcjx"
)

func v1Superblock() Superblock {
	return Superblock{Version: FormatVersion1, PageSize: DefaultPageSize, NumPages: 5, Root: 4, Height: 1, Count: 15, MBR: [4]float64{0, 0, 1, 1}}
}

func v2Superblock() Superblock {
	sb := packedTestSuperblock(6)
	sb.Version, sb.Flags = FormatVersion2, 0
	return sb
}

// TestV2PageBitFlips flips one bit inside each page of the v2 fixture on
// every backend, then one in the table trailer, which fails every open.
func TestV2PageBitFlips(t *testing.T) {
	want := v2Superblock()
	pristine, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	for page := 0; page < want.NumPages; page++ {
		for _, be := range allBackends {
			t.Run(fmt.Sprintf("page%d_%s", page, be), func(t *testing.T) {
				checkPageDamage(t, pristine, int64(want.PageSize*(1+page)+123), PageID(page), be)
			})
		}
	}
	t.Run("table trailer", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[want.PageSize*(1+want.NumPages)+2] ^= 0x40
		damaged := filepath.Join(t.TempDir(), "damaged.rcjx")
		if err := os.WriteFile(damaged, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, be := range allBackends {
			if _, _, err := openOn(t, damaged, be); !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("%s open with corrupt table = %v, want ErrBadChecksum", be, err)
			}
		}
	})
}

// TestV1StillOpens checks the legacy table-less fixture opens read-only on
// every backend — backward compatibility with pre-v2 indexes — and re-saves
// as the v3 file the writer makes of the same pages.
func TestV1StillOpens(t *testing.T) {
	sb := v1Superblock()
	src := testPager(t, sb.NumPages)
	// The v1 layout has no trailer: the file ends with the last page.
	info, err := os.Stat(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(sb.PageSize) * int64(1+sb.NumPages); info.Size() != want {
		t.Fatalf("v1 file is %d bytes, want exactly %d (no trailer)", info.Size(), want)
	}
	if !SniffIndexFile(v1Fixture) {
		t.Fatal("SniffIndexFile(v1) = false")
	}
	v3 := filepath.Join(t.TempDir(), "v3.rcjx")
	if err := WriteIndexFile(v3, asV3(sb), src); err != nil {
		t.Fatal(err)
	}
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) { checkResaves(t, checkOpens(t, v1Fixture, sb, src, be), sb, v3) })
	}
}

// asV3 is sb as the writer emits it: version 3, packed flag set.
func asV3(sb Superblock) Superblock {
	sb.Version, sb.Flags = FormatVersion3, FlagPackedPages
	return sb
}

// TestWriterEmitsOnlyV3 pins the one write path: a superblock asking for any
// version but 3 is refused before a file appears, and the zero version is v3.
func TestWriterEmitsOnlyV3(t *testing.T) {
	dir := t.TempDir()
	sb := v1Superblock()
	src := testPager(t, sb.NumPages)
	for _, v := range []int{FormatVersion1, FormatVersion2, FormatVersion3 + 1, -1} {
		sb.Version = v
		path := filepath.Join(dir, fmt.Sprintf("v%d.rcjx", v))
		if err := WriteIndexFile(path, sb, src); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("WriteIndexFile(v%d) = %v, want ErrBadVersion", v, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused v%d write left a file behind: %v", v, err)
		}
	}
	var files [2][]byte
	for i, v := range []int{0, FormatVersion3} {
		sb.Version = v
		path := filepath.Join(dir, fmt.Sprintf("ok%d.rcjx", v))
		if err := WriteIndexFile(path, sb, src); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSuperblockFile(path)
		if err != nil || got != asV3(sb) {
			t.Fatalf("version %d wrote superblock %+v (%v), want %+v", v, got, err, asV3(sb))
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the zero version and FormatVersion3 wrote different files")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("%d files in the output directory, want the 2 written (no temp left behind)", len(entries))
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

// testPager builds a small page image with recognizable contents: page i is
// filled with byte i+1.
func testPager(t *testing.T, numPages int) *MemPager {
	t.Helper()
	src := NewMemPager(DefaultPageSize)
	for i := 0; i < numPages; i++ {
		id, err := src.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := src.WritePage(id, bytes.Repeat([]byte{byte(i + 1)}, DefaultPageSize)); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// writeTestIndexFile writes testPager(numPages) in the index format and
// returns the superblock the file carries.
func writeTestIndexFile(t *testing.T, path string, numPages int) Superblock {
	t.Helper()
	sb := Superblock{
		PageSize: DefaultPageSize,
		NumPages: numPages,
		Root:     PageID(numPages - 1),
		Height:   1,
		Count:    int64(numPages * 3),
		MBR:      [4]float64{0, 0, 1, 1},
	}
	if err := WriteIndexFile(path, sb, testPager(t, numPages)); err != nil {
		t.Fatal(err)
	}
	return asV3(sb)
}

func TestIndexFileBackends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.rcjx")
	want := writeTestIndexFile(t, path, 5)
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) { checkResaves(t, checkOpens(t, path, want, testPager(t, 5), be), want, path) })
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
		for _, be := range allBackends {
			if be == BackendHTTP && cut < SuperblockSize {
				continue // an origin too short for a superblock is a short body: ErrRemote
			}
			if _, _, err := openOn(t, path, be); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d: open on %s = %v, want ErrTruncated", cut, be, err)
			}
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
