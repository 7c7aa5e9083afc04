package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzDecodeSuperblock throws arbitrary bytes at the superblock decoder: it
// must never panic, and anything it accepts must re-encode to the identical
// bytes (the format has no redundant encodings). Seeds cover both format
// versions so the corpus keeps exercising v1 and v2 decoding.
func FuzzDecodeSuperblock(f *testing.F) {
	for _, version := range []int{FormatVersion1, FormatVersion2} {
		valid := make([]byte, SuperblockSize)
		if err := EncodeSuperblock(Superblock{
			Version:  version,
			PageSize: DefaultPageSize,
			NumPages: 9,
			Root:     3,
			Height:   2,
			Count:    1000,
			MBR:      [4]float64{0, 0, 10000, 10000},
		}, valid); err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:SuperblockSize/2])
		corrupt := append([]byte(nil), valid...)
		corrupt[20] ^= 0xFF
		f.Add(corrupt)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sb, err := DecodeSuperblock(data)
		if err != nil {
			return
		}
		if sb.Version != FormatVersion1 && sb.Version != FormatVersion2 {
			t.Fatalf("decoder accepted unknown version %d", sb.Version)
		}
		if err := sb.Validate(); err != nil {
			t.Fatalf("decoder accepted a superblock Validate rejects: %v", err)
		}
		out := make([]byte, SuperblockSize)
		if err := EncodeSuperblock(sb, out); err != nil {
			t.Fatalf("re-encode of accepted superblock failed: %v", err)
		}
		if !bytes.Equal(out, data[:SuperblockSize]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", out, data[:SuperblockSize])
		}
	})
}

// FuzzDecodePageTable throws arbitrary bytes and page counts at the v2 page
// table decoder: no panics, and any accepted table must re-encode to the
// identical bytes.
func FuzzDecodePageTable(f *testing.F) {
	valid := make([]byte, PageTableSize(3))
	if err := EncodePageTable([]uint32{1, 0xDEADBEEF, 42}, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid, 3)
	f.Add(valid, 4)     // too short for the claimed count
	f.Add(valid[:5], 3) // truncated
	f.Add([]byte{}, 0)  // empty table still carries its own CRC
	f.Add(valid, -1)    // insane count
	f.Add(valid, 1<<30) // absurd count must not allocate wildly
	corrupt := append([]byte(nil), valid...)
	corrupt[2] ^= 0x01
	f.Add(corrupt, 3)

	f.Fuzz(func(t *testing.T, data []byte, numPages int) {
		// Cap the claimed count so a fuzzed giant value cannot make the
		// harness itself allocate gigabytes on the re-encode path; the
		// decoder must reject anything longer than its buffer regardless.
		if numPages > 1<<20 {
			if _, err := DecodePageTable(data, numPages); err == nil && len(data) < PageTableSize(numPages) {
				t.Fatal("decoder accepted a table shorter than its count")
			}
			return
		}
		table, err := DecodePageTable(data, numPages)
		if err != nil {
			return
		}
		if len(table) != numPages {
			t.Fatalf("accepted table has %d entries, want %d", len(table), numPages)
		}
		out := make([]byte, PageTableSize(numPages))
		if err := EncodePageTable(table, out); err != nil {
			t.Fatalf("re-encode of accepted table failed: %v", err)
		}
		if !bytes.Equal(out, data[:PageTableSize(numPages)]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", out, data[:PageTableSize(numPages)])
		}
	})
}

// FuzzOpenIndexFile throws whole mutated index files at the one function
// that reads them, on both local backends: the open either fails with one of
// the typed validation errors or returns a pager whose every ReadPage returns
// nil or a typed error — never a panic, and never an allocation beyond a
// small multiple of the file's length. Seeds are the committed fixtures of
// all three format versions, plus two whose (CRC-valid) superblocks lie
// about how much file follows.
func FuzzOpenIndexFile(f *testing.F) {
	for _, name := range []string{"golden_v1.rcjx", "golden_v2.rcjx", "golden_v3.rcjx"} {
		golden, err := os.ReadFile(filepath.Join("..", "..", "rcj", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		f.Add(golden[:len(golden)/2])
		for _, lie := range []struct{ off, val int }{{16, 1 << 26}, {12, 1 << 24}} { // page count, page size
			b := append([]byte(nil), golden...)
			binary.LittleEndian.PutUint32(b[lie.off:], uint32(lie.val))
			binary.LittleEndian.PutUint32(b[68:], crc32.ChecksumIEEE(b[:68]))
			f.Add(b)
		}
	}
	typed := func(err error) bool {
		for _, want := range []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrTruncated, ErrCorrupt} {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.rcjx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, be := range []Backend{BackendMem, BackendFile} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pager, sb, err := OpenIndexFile(path, be)
			if err == nil {
				buf := make([]byte, sb.PageSize)
				for i := 0; i < pager.NumPages(); i++ {
					if err := pager.ReadPage(PageID(i), buf); err != nil && !typed(err) {
						t.Fatalf("%s: ReadPage(%d) = %v, want nil or a typed error", be, i, err)
					}
				}
				pager.Close()
			} else if !typed(err) {
				t.Fatalf("%s: OpenIndexFile = %v, want a typed error", be, err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
				t.Fatalf("%s: allocated %d bytes over a %d-byte file", be, grew, len(data))
			}
		}
	})
}
