package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// The durable index file format (".rcjx"), versions 1 and 2:
//
//	block 0               one page-sized header block; the superblock
//	                      occupies its first SuperblockSize bytes, the rest
//	                      is zero
//	blocks 1..NumPages    the pager's pages, verbatim, page i at byte
//	                      offset PageSize·(1+i)
//	trailer (v2 only)     the page checksum table: one CRC-32 (IEEE) per
//	                      page, little endian, followed by a CRC-32 of the
//	                      table bytes themselves, at byte offset
//	                      PageSize·(1+NumPages)
//
// Version 3 ("packed") replaces the verbatim page image with compressed
// variable-length blobs located by a page directory:
//
//	block 0               the superblock, as above, with the packed flag set
//	offset PageSize       the page directory: NumPages+1 uint64 absolute
//	                      file offsets (dir[i] = start of page i's blob,
//	                      dir[NumPages] = end of the last blob), little
//	                      endian, followed by a CRC-32 of those bytes
//	blobs                 one pagecodec blob per page, back to back: a
//	                      1-byte kind (raw or delta/varint leafpack) plus
//	                      payload; decoding reproduces the page verbatim
//	offset dir[NumPages]  the page checksum table, exactly as in v2, over
//	                      the UNCOMPRESSED page images
//
// The superblock is versioned and checksummed so a reopening process can
// reject foreign, corrupt, or truncated files with a typed error before it
// ever walks a tree page. Versions 2 and 3 additionally checksum every page,
// which is what lets a pager serve the file over an unreliable substrate
// (remote HTTP ranges, flaky disks): each page is verified against the table
// — after blob decode, for v3 — before a single tree entry is decoded.
// Version 1 files (no table) still open read-only; the writer emits version
// 2 by default and version 3 on request (WriteIndexFile with
// sb.Version = FormatVersion3). Readers see all three as one layout with two
// optional tables (layout.go): the directory and the checksum table.
//
// Superblock layout (little endian):
//
//	offset  0: [8]byte  magic "RCJXIDX\x00"
//	offset  8: uint16   format version (1, 2, or 3)
//	offset 10: uint16   flags (v3: bit 0 = packed pages; zero before v3)
//	offset 12: uint32   page size in bytes
//	offset 16: uint32   number of pages following the header block
//	offset 20: uint32   root page id
//	offset 24: uint32   tree height (1 = root is a leaf)
//	offset 28: uint64   entry (point) count
//	offset 36: 4×float64 dataset MBR: minX, minY, maxX, maxY
//	offset 68: uint32   CRC-32 (IEEE) of bytes [0, 68)
const (
	// SuperblockSize is the encoded size of a Superblock in bytes.
	SuperblockSize = 72
	// FormatVersion1 is the original format: superblock + raw page image,
	// no per-page checksums. Still readable.
	FormatVersion1 = 1
	// FormatVersion2 adds the per-page CRC-32 table trailer.
	FormatVersion2 = 2
	// FormatVersion3 packs pages into compressed variable-length blobs
	// behind a page directory (see the format comment above). Leaf pages
	// delta/varint-compress to roughly half their raw size; the checksum
	// table still covers the uncompressed images.
	FormatVersion3 = 3
	// FormatVersion is the version the writer emits by default. Version 3
	// is opt-in (Index.SavePacked): readers that predate it reject the file
	// with ErrBadVersion.
	FormatVersion = FormatVersion2
	// maxFormatVersion is the newest version this reader understands.
	maxFormatVersion = FormatVersion3
)

// Superblock flag bits (the uint16 at offset 10, which was reserved-zero
// before format v3).
const (
	// FlagPackedPages marks a v3 file whose pages are stored as compressed
	// blobs behind a page directory. It is required for v3 and rejected for
	// earlier versions.
	FlagPackedPages uint16 = 1 << 0
)

// Magic identifies an index file; it is the first 8 bytes of the superblock.
var Magic = [8]byte{'R', 'C', 'J', 'X', 'I', 'D', 'X', 0}

// Typed errors for index-file validation. OpenIndexFile (and everything
// layered above it) wraps these, so callers can errors.Is-match the failure
// mode.
var (
	// ErrBadMagic means the file does not start with the index magic.
	ErrBadMagic = errors.New("storage: bad index file magic")
	// ErrBadVersion means the superblock's format version is unsupported.
	ErrBadVersion = errors.New("storage: unsupported index format version")
	// ErrBadChecksum means a CRC does not match its contents: the
	// superblock's, the page table's, or — wrapped with the offending page
	// id — an individual page's.
	ErrBadChecksum = errors.New("storage: checksum mismatch")
	// ErrTruncated means the file is shorter than its superblock promises.
	ErrTruncated = errors.New("storage: truncated index file")
	// ErrCorrupt means a superblock field is internally inconsistent.
	ErrCorrupt = errors.New("storage: corrupt index file")
	// ErrPageSizeMismatch means the file's page size differs from the one
	// the caller required.
	ErrPageSizeMismatch = errors.New("storage: page size mismatch")
)

// Superblock is the tree-metadata block at the head of an index file: enough
// to reattach an R-tree to the page image without touching a single point.
type Superblock struct {
	Version  int        // format version; 0 encodes as FormatVersion
	Flags    uint16     // format flags; must be FlagPackedPages for v3, zero before
	PageSize int        // fixed page size in bytes
	NumPages int        // pages following the header block
	Root     PageID     // page id of the tree root (InvalidPageID when empty)
	Height   int        // tree height (1 = root is a leaf, 0 = empty)
	Count    int64      // number of indexed entries
	MBR      [4]float64 // dataset bounding rect: minX, minY, maxX, maxY
}

// effectiveVersion resolves the zero Version to the writer's current format.
func (sb Superblock) effectiveVersion() int {
	if sb.Version == 0 {
		return FormatVersion
	}
	return sb.Version
}

// hasPageTable reports whether this superblock's format version carries the
// per-page checksum table (a trailer at PageSize·(1+NumPages) for v2; at
// dir[NumPages] for packed v3).
func (sb Superblock) hasPageTable() bool { return sb.effectiveVersion() >= FormatVersion2 }

// Packed reports whether this superblock's format stores pages as compressed
// variable-length blobs behind a page directory (format v3).
func (sb Superblock) Packed() bool { return sb.effectiveVersion() >= FormatVersion3 }

// EncodeSuperblock serializes sb into buf, which must be at least
// SuperblockSize bytes. It fails on a superblock that Validate rejects, so
// every encoded superblock decodes cleanly. A zero Version encodes as the
// current FormatVersion.
func EncodeSuperblock(sb Superblock, buf []byte) error {
	if len(buf) < SuperblockSize {
		return fmt.Errorf("storage: superblock buffer %d smaller than %d", len(buf), SuperblockSize)
	}
	if err := sb.Validate(); err != nil {
		return err
	}
	copy(buf[0:8], Magic[:])
	binary.LittleEndian.PutUint16(buf[8:], uint16(sb.effectiveVersion()))
	binary.LittleEndian.PutUint16(buf[10:], sb.Flags)
	binary.LittleEndian.PutUint32(buf[12:], uint32(sb.PageSize))
	binary.LittleEndian.PutUint32(buf[16:], uint32(sb.NumPages))
	binary.LittleEndian.PutUint32(buf[20:], uint32(sb.Root))
	binary.LittleEndian.PutUint32(buf[24:], uint32(sb.Height))
	binary.LittleEndian.PutUint64(buf[28:], uint64(sb.Count))
	for i, v := range sb.MBR {
		binary.LittleEndian.PutUint64(buf[36+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[68:], crc32.ChecksumIEEE(buf[:68]))
	return nil
}

// DecodeSuperblock parses and validates a superblock. Failures carry one of
// the typed errors above. Every format version (1–3) decodes; Version
// records which one the file carries.
func DecodeSuperblock(buf []byte) (Superblock, error) {
	if len(buf) < SuperblockSize {
		return Superblock{}, fmt.Errorf("%w: %d bytes, superblock needs %d", ErrTruncated, len(buf), SuperblockSize)
	}
	if [8]byte(buf[0:8]) != Magic {
		return Superblock{}, fmt.Errorf("%w: %q", ErrBadMagic, buf[0:8])
	}
	v := binary.LittleEndian.Uint16(buf[8:])
	if v < FormatVersion1 || v > maxFormatVersion {
		return Superblock{}, fmt.Errorf("%w: %d (supported: %d..%d)", ErrBadVersion, v, FormatVersion1, maxFormatVersion)
	}
	want := binary.LittleEndian.Uint32(buf[68:])
	if got := crc32.ChecksumIEEE(buf[:68]); got != want {
		return Superblock{}, fmt.Errorf("%w: superblock: computed %08x, stored %08x", ErrBadChecksum, got, want)
	}
	sb := Superblock{
		Version:  int(v),
		Flags:    binary.LittleEndian.Uint16(buf[10:]),
		PageSize: int(binary.LittleEndian.Uint32(buf[12:])),
		NumPages: int(binary.LittleEndian.Uint32(buf[16:])),
		Root:     PageID(binary.LittleEndian.Uint32(buf[20:])),
		Height:   int(binary.LittleEndian.Uint32(buf[24:])),
		Count:    int64(binary.LittleEndian.Uint64(buf[28:])),
	}
	for i := range sb.MBR {
		sb.MBR[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[36+8*i:]))
	}
	if err := sb.Validate(); err != nil {
		return Superblock{}, err
	}
	return sb, nil
}

// Validate checks the superblock's internal consistency: supported version,
// sane page size, a root that lies inside the page range, and height/count
// agreement.
func (sb Superblock) Validate() error {
	v := sb.effectiveVersion()
	if v < FormatVersion1 || v > maxFormatVersion {
		return fmt.Errorf("%w: %d (supported: %d..%d)", ErrBadVersion, v, FormatVersion1, maxFormatVersion)
	}
	if v < FormatVersion3 {
		if sb.Flags != 0 {
			return fmt.Errorf("%w: reserved field %#x", ErrCorrupt, sb.Flags)
		}
	} else if sb.Flags != FlagPackedPages {
		return fmt.Errorf("%w: v%d flags %#x (want %#x)", ErrCorrupt, v, sb.Flags, FlagPackedPages)
	}
	if sb.PageSize < SuperblockSize || sb.PageSize > 1<<24 {
		return fmt.Errorf("%w: page size %d", ErrCorrupt, sb.PageSize)
	}
	if sb.NumPages < 0 || sb.NumPages > int(InvalidPageID) {
		return fmt.Errorf("%w: page count %d", ErrCorrupt, sb.NumPages)
	}
	if sb.Count < 0 {
		return fmt.Errorf("%w: entry count %d", ErrCorrupt, sb.Count)
	}
	if sb.Count == 0 {
		if sb.Root != InvalidPageID || sb.Height != 0 {
			return fmt.Errorf("%w: empty tree with root %d height %d", ErrCorrupt, sb.Root, sb.Height)
		}
		return nil
	}
	if sb.Root == InvalidPageID || int(sb.Root) >= sb.NumPages {
		return fmt.Errorf("%w: root page %d of %d pages", ErrCorrupt, sb.Root, sb.NumPages)
	}
	if sb.Height < 1 || sb.Height > 64 {
		return fmt.Errorf("%w: tree height %d", ErrCorrupt, sb.Height)
	}
	return nil
}

// fileSize returns the total byte length a well-formed file with this
// superblock must have: header block, page image, and (v2) the table trailer.
// For a packed (v3) file the blobs are variable-length, so this is the
// *minimum* legal size — header, directory, one byte per blob, table; the
// exact end of file is dir[NumPages] + PageTableSize and is checked once the
// directory is decoded.
func (sb Superblock) fileSize() int64 {
	if sb.Packed() {
		return int64(sb.PageSize) + int64(PageDirSize(sb.NumPages)) +
			int64(sb.NumPages) + int64(PageTableSize(sb.NumPages))
	}
	n := int64(sb.PageSize) * int64(1+sb.NumPages)
	if sb.hasPageTable() {
		n += int64(PageTableSize(sb.NumPages))
	}
	return n
}

// PageChecksum returns the CRC-32 (IEEE) of one page image, the per-page
// checksum formats v2 and v3 store in the page table.
func PageChecksum(page []byte) uint32 { return crc32.ChecksumIEEE(page) }

// PageTableSize returns the encoded size in bytes of a page checksum table
// covering numPages pages: one CRC-32 per page plus the table's own CRC-32.
func PageTableSize(numPages int) int { return 4*numPages + 4 }

// EncodePageTable serializes the per-page checksum table into buf, which
// must be at least PageTableSize(len(table)) bytes: each page's CRC-32
// little endian, then a CRC-32 of those bytes so a torn or corrupted table
// is itself detectable.
func EncodePageTable(table []uint32, buf []byte) error {
	need := PageTableSize(len(table))
	if len(buf) < need {
		return fmt.Errorf("storage: page table buffer %d smaller than %d", len(buf), need)
	}
	for i, crc := range table {
		binary.LittleEndian.PutUint32(buf[4*i:], crc)
	}
	binary.LittleEndian.PutUint32(buf[4*len(table):], crc32.ChecksumIEEE(buf[:4*len(table)]))
	return nil
}

// DecodePageTable parses and validates a page checksum table covering
// numPages pages. Failures carry ErrTruncated (short buffer) or
// ErrBadChecksum (the table's own CRC does not match).
func DecodePageTable(buf []byte, numPages int) ([]uint32, error) {
	if numPages < 0 || numPages > int(InvalidPageID) {
		return nil, fmt.Errorf("%w: page count %d", ErrCorrupt, numPages)
	}
	need := PageTableSize(numPages)
	if len(buf) < need {
		return nil, fmt.Errorf("%w: %d bytes, page table needs %d", ErrTruncated, len(buf), need)
	}
	want := binary.LittleEndian.Uint32(buf[4*numPages:])
	if got := crc32.ChecksumIEEE(buf[:4*numPages]); got != want {
		return nil, fmt.Errorf("%w: page table: computed %08x, stored %08x", ErrBadChecksum, got, want)
	}
	table := make([]uint32, numPages)
	for i := range table {
		table[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return table, nil
}

// PageDirSize returns the encoded size in bytes of a v3 page directory
// covering numPages pages: numPages+1 uint64 offsets plus the directory's own
// CRC-32.
func PageDirSize(numPages int) int { return 8*(numPages+1) + 4 }

// EncodePageDir serializes the v3 page directory — dir[i] is the absolute
// file offset of page i's blob, dir[len(dir)-1] the end of the last blob —
// into buf, little endian, followed by a CRC-32 of the offset bytes.
func EncodePageDir(dir []uint64, buf []byte) error {
	need := 8*len(dir) + 4
	if len(buf) < need {
		return fmt.Errorf("storage: page directory buffer %d smaller than %d", len(buf), need)
	}
	for i, off := range dir {
		binary.LittleEndian.PutUint64(buf[8*i:], off)
	}
	binary.LittleEndian.PutUint32(buf[8*len(dir):], crc32.ChecksumIEEE(buf[:8*len(dir)]))
	return nil
}

// DecodePageDir parses and validates the page directory of a packed index
// described by sb: CRC over the offsets, blobs starting right after the
// directory, strictly increasing offsets, and every blob within
// [1, 1+PageSize] bytes (the raw-fallback ceiling of the codec). Failures
// carry ErrTruncated, ErrBadChecksum, or ErrCorrupt.
func DecodePageDir(buf []byte, sb Superblock) ([]uint64, error) {
	need := PageDirSize(sb.NumPages)
	if len(buf) < need {
		return nil, fmt.Errorf("%w: %d bytes, page directory needs %d", ErrTruncated, len(buf), need)
	}
	n := 8 * (sb.NumPages + 1)
	want := binary.LittleEndian.Uint32(buf[n:])
	if got := crc32.ChecksumIEEE(buf[:n]); got != want {
		return nil, fmt.Errorf("%w: page directory: computed %08x, stored %08x", ErrBadChecksum, got, want)
	}
	dir := make([]uint64, sb.NumPages+1)
	for i := range dir {
		dir[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	if dir[0] != uint64(sb.PageSize)+uint64(need) {
		return nil, fmt.Errorf("%w: first blob at %d, directory ends at %d", ErrCorrupt, dir[0], sb.PageSize+need)
	}
	for i := 0; i < sb.NumPages; i++ {
		if dir[i+1] <= dir[i] || dir[i+1]-dir[i] > uint64(sb.PageSize)+1 {
			return nil, fmt.Errorf("%w: page %d blob spans [%d, %d)", ErrCorrupt, i, dir[i], dir[i+1])
		}
	}
	return dir, nil
}

// VerifyPage checks one fetched page image against the checksum table,
// naming the offending page in the returned ErrBadChecksum.
func VerifyPage(table []uint32, id PageID, page []byte) error {
	if int(id) >= len(table) {
		return fmt.Errorf("%w: verify %d of %d", ErrPageOutOfRange, id, len(table))
	}
	if got := PageChecksum(page); got != table[id] {
		return fmt.Errorf("%w: page %d: computed %08x, stored %08x", ErrBadChecksum, id, got, table[id])
	}
	return nil
}

// WriteIndexFile durably writes src's pages to path in the index file
// format, prefixed by sb and (format v2, the default) followed by the page
// checksum table. sb must describe src exactly (page size and page count);
// sb.Version selects the emitted format — zero means the current
// FormatVersion, FormatVersion1 writes the legacy table-less layout (kept
// for compatibility fixtures), FormatVersion3 packs pages into compressed
// blobs behind a page directory (the packed flag is set automatically). The
// file is written to a temp sibling and renamed into place, so a crashed
// Save never leaves a half-written index at path.
func WriteIndexFile(path string, sb Superblock, src Pager) error {
	if sb.PageSize != src.PageSize() {
		return fmt.Errorf("storage: superblock page size %d != pager page size %d", sb.PageSize, src.PageSize())
	}
	if sb.NumPages != src.NumPages() {
		return fmt.Errorf("storage: superblock page count %d != pager page count %d", sb.NumPages, src.NumPages())
	}
	if sb.Packed() {
		sb.Flags = FlagPackedPages
	}
	// A unique temp name per writer: concurrent Saves to the same path must
	// not interleave into one tmp file, or the rename would install a blend
	// of two page images.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("storage: create index file: %w", err)
	}
	tmp := f.Name()
	err = func() error {
		if err := f.Chmod(0o644); err != nil { // CreateTemp defaults to 0600
			return err
		}
		w := bufio.NewWriterSize(f, 1<<16)
		header := make([]byte, sb.PageSize)
		if err := EncodeSuperblock(sb, header); err != nil {
			return err
		}
		if _, err := w.Write(header); err != nil {
			return err
		}
		if sb.Packed() {
			if err := writePackedBody(w, sb, src); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			return f.Sync()
		}
		var table []uint32
		if sb.hasPageTable() {
			table = make([]uint32, sb.NumPages)
		}
		buf := make([]byte, sb.PageSize)
		for i := 0; i < sb.NumPages; i++ {
			if err := src.ReadPage(PageID(i), buf); err != nil {
				return err
			}
			if table != nil {
				table[i] = PageChecksum(buf)
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		if table != nil {
			tbuf := make([]byte, PageTableSize(sb.NumPages))
			if err := EncodePageTable(table, tbuf); err != nil {
				return err
			}
			if _, err := w.Write(tbuf); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write index file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write index file: %w", err)
	}
	return nil
}

// ReadSuperblockFile reads and validates the superblock of the index file at
// path without touching its pages.
func ReadSuperblockFile(path string) (Superblock, error) {
	f, err := os.Open(path)
	if err != nil {
		return Superblock{}, err
	}
	defer f.Close()
	return readSuperblock(f)
}

// SniffIndexFile reports whether the file at path begins with the index
// magic (i.e. looks like an index file rather than, say, a CSV). It reads at
// most 8 bytes and never fails on short or unreadable files. Every format
// version shares the magic.
func SniffIndexFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return false
	}
	return m == Magic
}

// Backend selects how an index file's pages are accessed after open.
type Backend int

const (
	// BackendMem loads the whole page image into memory up front: fastest
	// reads, full-file RAM cost. The default, matching in-memory builds.
	BackendMem Backend = iota
	// BackendFile serves pages with positional reads (pread) from the file:
	// bounded memory, one syscall per buffer-pool miss.
	BackendFile
	// BackendHTTP fetches pages over HTTP range requests from a URL:
	// serving a shared index without a shared filesystem. See OpenIndexURL.
	BackendHTTP
)

// String returns the flag-style name of the backend.
func (b Backend) String() string {
	switch b {
	case BackendMem:
		return "mem"
	case BackendFile:
		return "file"
	case BackendHTTP:
		return "http"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses a flag-style backend name ("mem", "file", "http").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "mem", "memory":
		return BackendMem, nil
	case "file":
		return BackendFile, nil
	case "http", "https":
		return BackendHTTP, nil
	default:
		return 0, fmt.Errorf("storage: unknown backend %q (want mem, file, or http)", s)
	}
}
