package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/pagecodec"
)

// layout is the one place that knows where page i of an index file lives,
// how its stored bytes decode, and how the result is verified. The three
// format versions are three settings of two optional tables: v1 has neither
// (fixed stride, pages verbatim, unverified), v2 adds the CRC table, v3 adds
// the directory of variable-length pagecodec blobs. Every substrate — memory,
// local file, HTTP ranges — reads through span and decode and nothing else.
type layout struct {
	pageSize int
	numPages int
	dir      []uint64 // v3: page i's blob is [dir[i], dir[i+1]); nil = verbatim pages at a fixed stride
	table    []uint32 // v2/v3: CRC-32 of each page image; nil = unverified (v1)
}

// rangeReader reads n bytes at off from a substrate and hands them to check.
// A substrate that can read again (HTTP) retries while check reports
// ErrBadChecksum, which is why the check travels with the read.
type rangeReader func(off int64, n int, check func([]byte) error) error

// readLayout reads and validates the tables sb promises — the v3 page
// directory, the v2/v3 checksum table — from an object of size bytes. The
// promised size is checked before anything count-sized is allocated, so a
// superblock cannot make the reader allocate more than the object holds; an
// object whose size the substrate could not learn (size < 0: an origin that
// reports no length) is refused for the same reason.
func readLayout(read rangeReader, size int64, sb Superblock) (layout, error) {
	l := layout{pageSize: sb.PageSize, numPages: sb.NumPages}
	if size < 0 {
		return l, fmt.Errorf("%w: origin reports no object length to check the superblock's %d pages against", ErrRemote, sb.NumPages)
	}
	if need := sb.fileSize(); size < need {
		return l, fmt.Errorf("%w: %d bytes, superblock promises %d", ErrTruncated, size, need)
	}
	tableOff := int64(sb.PageSize) * int64(1+sb.NumPages)
	if sb.Packed() {
		err := read(int64(sb.PageSize), PageDirSize(sb.NumPages), func(b []byte) (err error) {
			l.dir, err = DecodePageDir(b, sb)
			return err
		})
		if err != nil {
			return l, fmt.Errorf("page directory: %w", err)
		}
		tableOff = int64(l.dir[sb.NumPages])
		if end := tableOff + int64(PageTableSize(sb.NumPages)); size < end {
			return l, fmt.Errorf("%w: %d bytes, page directory promises %d", ErrTruncated, size, end)
		}
	}
	if sb.hasPageTable() {
		err := read(tableOff, PageTableSize(sb.NumPages), func(b []byte) (err error) {
			l.table, err = DecodePageTable(b, sb.NumPages)
			return err
		})
		if err != nil {
			return l, fmt.Errorf("page table: %w", err)
		}
	}
	return l, nil
}

// PageSize returns the (decoded) page size in bytes.
func (l *layout) PageSize() int { return l.pageSize }

// NumPages returns the number of pages the index carries.
func (l *layout) NumPages() int { return l.numPages }

// span returns the byte range of the object that stores pages
// [first, first+n): what one read must fetch to serve them.
func (l *layout) span(first PageID, n int) (off int64, length int) {
	if l.dir == nil {
		return int64(l.pageSize) * (1 + int64(first)), n * l.pageSize
	}
	return int64(l.dir[first]), int(l.dir[int(first)+n] - l.dir[first])
}

// scratch returns the buffer a reader fills with page bytes before decode:
// dst itself when pages are stored verbatim — decode is then only the
// verification — and a fresh n-byte blob buffer otherwise.
func (l *layout) scratch(dst []byte, n int) []byte {
	if l.dir == nil {
		return dst[:l.pageSize]
	}
	return make([]byte, n)
}

// decode turns the stored bytes of page id (the range span(id, 1) names)
// into its page image in dst and verifies the image against the checksum
// table. Failures name the page: ErrCorrupt for a blob that does not decode,
// ErrBadChecksum for an image that does not match its CRC.
func (l *layout) decode(id PageID, stored, dst []byte) error {
	dst = dst[:l.pageSize]
	if l.dir == nil {
		copy(dst, stored)
	} else if err := pagecodec.DecodePage(dst, stored); err != nil {
		return fmt.Errorf("%w: page %d: %v", ErrCorrupt, id, err)
	}
	if l.table == nil {
		return nil
	}
	return VerifyPage(l.table, id, dst)
}

// checkRead validates the arguments of a ReadPage against the layout.
func (l *layout) checkRead(id PageID, buf []byte) error {
	if int(id) >= l.numPages {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, l.numPages)
	}
	if len(buf) < l.pageSize {
		return fmt.Errorf("storage: read buffer %d smaller than page size %d", len(buf), l.pageSize)
	}
	return nil
}

// load is the memory substrate: every page is read, decoded and verified in
// one sequential pass, and the file is never touched again. Pages are
// allocated as they verify, so a file that lies about its contents fails at
// its first bad page, not after the whole image has been reserved.
func (l *layout) load(r io.ReaderAt) (*MemPager, error) {
	off, length := l.span(0, l.numPages)
	br := bufio.NewReaderSize(io.NewSectionReader(r, off, int64(length)), 1<<16)
	pages := make([][]byte, l.numPages)
	stored := make([]byte, 0, pagecodec.MaxBlobSize(l.pageSize))
	for i := range pages {
		_, n := l.span(PageID(i), 1)
		stored = stored[:n]
		if _, err := io.ReadFull(br, stored); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrTruncated, i, err)
		}
		pages[i] = make([]byte, l.pageSize)
		if err := l.decode(PageID(i), stored, pages[i]); err != nil {
			return nil, err
		}
	}
	return &MemPager{pageSize: l.pageSize, pages: pages}, nil
}

// readOnly is the mutating half of Pager for substrates opened for serving.
type readOnly struct{}

// Allocate fails: the index is read-only.
func (readOnly) Allocate() (PageID, error) {
	return InvalidPageID, fmt.Errorf("%w: allocate", ErrReadOnly)
}

// WritePage fails: the index is read-only.
func (readOnly) WritePage(id PageID, _ []byte) error {
	return fmt.Errorf("%w: write page %d", ErrReadOnly, id)
}

// preadPager is the local-file substrate: each ReadPage is one positional
// read of the page's span — straight into the caller's buffer when pages are
// stored verbatim — decoded and verified before the caller sees a byte. The
// read path takes no lock (pread, immutable layout, atomic counter), so any
// number of concurrent joins fault pages in without serializing; reads
// racing Close fail with os.ErrClosed.
type preadPager struct {
	layout
	readOnly
	f     *os.File
	reads atomic.Int64
}

func (p *preadPager) ReadPage(id PageID, buf []byte) error {
	if err := p.checkRead(id, buf); err != nil {
		return err
	}
	off, n := p.span(id, 1)
	stored := p.scratch(buf, n)
	if _, err := p.f.ReadAt(stored, off); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if err := p.decode(id, stored, buf); err != nil {
		return err
	}
	p.reads.Add(1)
	return nil
}

// Stats returns cumulative physical I/O counters (reads only).
func (p *preadPager) Stats() Stats { return Stats{Reads: p.reads.Load()} }

// Close releases the underlying file.
func (p *preadPager) Close() error { return p.f.Close() }

// readSuperblock reads and validates the superblock at the head of f.
func readSuperblock(f *os.File) (Superblock, error) {
	buf := make([]byte, SuperblockSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return Superblock{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return DecodeSuperblock(buf)
}

// OpenIndexFile validates the index file at path and returns a read-only
// Pager over its pages on the chosen local backend, plus the decoded
// superblock. Every format version opens on every backend through the same
// layout: mem decodes and verifies the whole image once at open, file does
// so per buffer-pool miss. Pages of v2 and v3 files are verified against the
// checksum table before the caller sees them; v1 files carry none.
// Validation failures carry the typed errors of format.go.
func OpenIndexFile(path string, backend Backend) (Pager, Superblock, error) {
	switch backend {
	case BackendMem, BackendFile:
	case BackendHTTP:
		return nil, Superblock{}, fmt.Errorf("storage: http backend serves URLs, not local files (use OpenIndexURL)")
	default:
		return nil, Superblock{}, fmt.Errorf("storage: unknown backend %d", backend)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, Superblock{}, fmt.Errorf("storage: open index file: %w", err)
	}
	pager, sb, err := openIndexFile(f, backend)
	if err != nil || backend == BackendMem {
		f.Close() // the file pager owns f; everything else is done with it
	}
	return pager, sb, err
}

func openIndexFile(f *os.File, backend Backend) (Pager, Superblock, error) {
	sb, err := readSuperblock(f)
	if err != nil {
		return nil, Superblock{}, err
	}
	info, err := f.Stat()
	if err != nil {
		return nil, Superblock{}, fmt.Errorf("storage: stat index file: %w", err)
	}
	l, err := readLayout(func(off int64, n int, check func([]byte) error) error {
		b := make([]byte, n)
		if _, err := f.ReadAt(b, off); err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return check(b)
	}, info.Size(), sb)
	if err != nil {
		return nil, Superblock{}, err
	}
	if backend == BackendFile {
		return &preadPager{layout: l, f: f}, sb, nil
	}
	pager, err := l.load(f)
	if err != nil {
		return nil, Superblock{}, err
	}
	return pager, sb, nil
}
