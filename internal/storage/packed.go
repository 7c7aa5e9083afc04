package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/pagecodec"
)

// This file is the packed (format v3) half of the index-file machinery: the
// writer body that turns a pager's pages into directory-located compressed
// blobs, and the read side that serves those blobs back as verbatim pages on
// every local backend. The HTTP backend's packed path lives with the rest of
// the remote pager in httppager.go.

// writePackedBody streams the v3 body — page directory, blobs, checksum
// table — to w, which has already received the header block. Blobs are
// buffered in memory (the compressed image, typically well under half the
// raw size) because the directory precedes them in the file but their
// offsets are only known once every page is encoded.
func writePackedBody(w *bufio.Writer, sb Superblock, src Pager) error {
	base := uint64(sb.PageSize) + uint64(PageDirSize(sb.NumPages))
	dir := make([]uint64, sb.NumPages+1)
	table := make([]uint32, sb.NumPages)
	blobs := make([]byte, 0, sb.NumPages*64)
	buf := make([]byte, sb.PageSize)
	for i := 0; i < sb.NumPages; i++ {
		if err := src.ReadPage(PageID(i), buf); err != nil {
			return err
		}
		table[i] = PageChecksum(buf)
		dir[i] = base + uint64(len(blobs))
		blobs = pagecodec.AppendPage(blobs, buf)
	}
	dir[sb.NumPages] = base + uint64(len(blobs))
	dbuf := make([]byte, PageDirSize(sb.NumPages))
	if err := EncodePageDir(dir, dbuf); err != nil {
		return err
	}
	if _, err := w.Write(dbuf); err != nil {
		return err
	}
	if _, err := w.Write(blobs); err != nil {
		return err
	}
	tbuf := make([]byte, PageTableSize(sb.NumPages))
	if err := EncodePageTable(table, tbuf); err != nil {
		return err
	}
	_, err := w.Write(tbuf)
	return err
}

// readPackedMeta reads and validates the page directory and checksum table
// of a packed index from r. size is the total file length (-1 when unknown);
// with the directory decoded the exact end of file is known and checked.
func readPackedMeta(r io.ReaderAt, size int64, sb Superblock) (dir []uint64, table []uint32, err error) {
	dbuf := make([]byte, PageDirSize(sb.NumPages))
	if _, err := r.ReadAt(dbuf, int64(sb.PageSize)); err != nil {
		return nil, nil, fmt.Errorf("%w: page directory: %v", ErrTruncated, err)
	}
	if dir, err = DecodePageDir(dbuf, sb); err != nil {
		return nil, nil, err
	}
	end := int64(dir[sb.NumPages]) + int64(PageTableSize(sb.NumPages))
	if size >= 0 && size < end {
		return nil, nil, fmt.Errorf("%w: %d bytes, page directory promises %d", ErrTruncated, size, end)
	}
	tbuf := make([]byte, PageTableSize(sb.NumPages))
	if _, err := r.ReadAt(tbuf, int64(dir[sb.NumPages])); err != nil {
		return nil, nil, fmt.Errorf("%w: page table: %v", ErrTruncated, err)
	}
	if table, err = DecodePageTable(tbuf, sb.NumPages); err != nil {
		return nil, nil, err
	}
	return dir, table, nil
}

// openPackedIndexFile stands up the backend for a validated packed index
// whose superblock has been read from the open file f. It owns f: either the
// returned pager keeps serving from it or it is closed before returning.
func openPackedIndexFile(f *os.File, size int64, sb Superblock, backend Backend) (Pager, error) {
	dir, table, err := readPackedMeta(f, size, sb)
	if err != nil {
		f.Close()
		return nil, err
	}
	switch backend {
	case BackendMem:
		pager, err := readPackedMemPager(f, sb, dir, table)
		f.Close()
		return pager, err
	case BackendFile:
		return &packedPager{f: f, pageSize: sb.PageSize, dir: dir, table: table}, nil
	case BackendHTTP:
		f.Close()
		return nil, fmt.Errorf("storage: http backend serves URLs, not local files (use OpenIndexURL)")
	default:
		f.Close()
		return nil, fmt.Errorf("storage: unknown backend %d", backend)
	}
}

// readPackedMemPager decodes every blob of the packed index into a fully
// materialized MemPager, verifying each page against the checksum table —
// the packed analogue of readMemPager: one pass at open, no file access
// after.
func readPackedMemPager(f *os.File, sb Superblock, dir []uint64, table []uint32) (*MemPager, error) {
	region := make([]byte, dir[sb.NumPages]-dir[0])
	if len(region) > 0 {
		if _, err := f.ReadAt(region, int64(dir[0])); err != nil {
			return nil, fmt.Errorf("%w: page blobs: %v", ErrTruncated, err)
		}
	}
	pages := make([][]byte, sb.NumPages)
	for i := range pages {
		pages[i] = make([]byte, sb.PageSize)
		blob := region[dir[i]-dir[0] : dir[i+1]-dir[0]]
		if err := pagecodec.DecodePage(pages[i], blob); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrCorrupt, i, err)
		}
		if err := VerifyPage(table, PageID(i), pages[i]); err != nil {
			return nil, err
		}
	}
	return &MemPager{pageSize: sb.PageSize, pages: pages}, nil
}

// packedPager serves a packed index from its open file: page i is the blob
// at [dir[i], dir[i+1]), read with one pread per miss, decoded to a verbatim
// page image and verified against the checksum table on every read. Reads
// are lock-free and safe for concurrent use — each decodes into the caller's
// buffer through a private blob copy.
type packedPager struct {
	f        *os.File
	pageSize int
	dir      []uint64
	table    []uint32
	reads    atomic.Int64
}

// PageSize returns the (uncompressed) page size in bytes.
func (p *packedPager) PageSize() int { return p.pageSize }

// NumPages returns the number of pages the index carries.
func (p *packedPager) NumPages() int { return len(p.dir) - 1 }

// Allocate fails: the packed index is read-only.
func (p *packedPager) Allocate() (PageID, error) {
	return InvalidPageID, fmt.Errorf("%w: allocate", ErrReadOnly)
}

// WritePage fails: the packed index is read-only.
func (p *packedPager) WritePage(id PageID, buf []byte) error {
	return fmt.Errorf("%w: write page %d", ErrReadOnly, id)
}

// ReadPage reads page id's blob, decodes it into buf, and verifies the
// decoded image against the checksum table.
func (p *packedPager) ReadPage(id PageID, buf []byte) error {
	n := len(p.dir) - 1
	if int(id) >= n {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, n)
	}
	if len(buf) < p.pageSize {
		return fmt.Errorf("storage: read buffer %d smaller than page size %d", len(buf), p.pageSize)
	}
	blob := make([]byte, p.dir[id+1]-p.dir[id])
	if _, err := p.f.ReadAt(blob, int64(p.dir[id])); err != nil {
		return fmt.Errorf("storage: read page %d blob: %w", id, err)
	}
	if err := pagecodec.DecodePage(buf[:p.pageSize], blob); err != nil {
		return fmt.Errorf("%w: page %d: %v", ErrCorrupt, id, err)
	}
	if err := VerifyPage(p.table, id, buf[:p.pageSize]); err != nil {
		return err
	}
	p.reads.Add(1)
	return nil
}

// Stats returns cumulative physical I/O counters (reads only; the packed
// index never writes).
func (p *packedPager) Stats() Stats { return Stats{Reads: p.reads.Load()} }

// Close releases the underlying file.
func (p *packedPager) Close() error { return p.f.Close() }
