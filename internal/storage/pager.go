// Package storage provides the disk-page substrate the R-trees are built on:
// fixed-size pages addressed by PageID, served from one of three substrates.
// Trees are built in an in-memory pager (MemPager — also the default for
// experiments, where I/O cost is charged analytically per the paper's
// 10 ms/page-fault model); a saved index is read back through memory again
// (loaded whole), a read-only positional-read pager over the local file, or
// an HTTP range-request pager for indexes served from object storage. All
// pagers account every physical read and write so the experiment harness
// can report I/O exactly.
//
// The package also defines the durable index file format (see format.go): a
// versioned, checksummed superblock describing the tree (root page, entry
// count, MBR) followed by the pages — verbatim or packed — and their
// checksum table. WriteIndexFile persists a pager, always in the packed v3
// layout; v1 and v2 files are read-only. OpenIndexFile validates a file of
// any version and reopens it behind a local Backend (mem, file) without
// rebuilding the tree; OpenIndexURL does the same for a remote one. Where a
// page lives in the file, how it decodes and how it is verified is decided in
// one place (layout.go) that all three substrates read through.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the paper's evaluation
// (Section 5: "disk page size of 1K bytes").
const DefaultPageSize = 1024

// PageID identifies a page within a pager. InvalidPageID is never allocated.
type PageID uint32

// InvalidPageID is the zero sentinel for "no page" (e.g. child pointers in
// leaf entries).
const InvalidPageID PageID = 0xFFFFFFFF

// ErrPageOutOfRange is returned when a page id has not been allocated.
var ErrPageOutOfRange = errors.New("storage: page id out of range")

// ErrReadOnly is returned by mutating operations on read-only pagers (index
// files and URLs opened for serving).
var ErrReadOnly = errors.New("storage: pager is read-only")

// Pager is a flat array of fixed-size pages. Implementations must be safe for
// concurrent use by multiple goroutines.
type Pager interface {
	// PageSize returns the fixed size in bytes of every page.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Allocate reserves a new zeroed page and returns its id.
	Allocate() (PageID, error)
	// ReadPage copies the contents of page id into buf, which must be at
	// least PageSize bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (at most PageSize bytes) as the contents of page
	// id, which must already be allocated.
	WritePage(id PageID, buf []byte) error
	// Stats returns cumulative physical I/O counters.
	Stats() Stats
	// Close releases underlying resources.
	Close() error
}

// PageRangeReader is the optional coalescing interface of a Pager: reading n
// consecutive pages in one substrate operation. Callers type-assert for it
// and fall back to per-page ReadPage; only substrates where a round trip
// dominates a page (HTTPPager) implement it.
type PageRangeReader interface {
	// ReadPageRange reads pages [first, first+n) and returns one slice per
	// page, each PageSize bytes, valid until the caller releases them.
	ReadPageRange(first PageID, n int) ([][]byte, error)
}

// Stats are cumulative physical I/O counters for a pager.
type Stats struct {
	Reads  int64 // physical page reads
	Writes int64 // physical page writes
}

// MemPager is an in-memory Pager. It is the substrate for all experiments:
// the page-fault count (tracked above it by the buffer manager) is converted
// to time analytically, exactly as the paper charges 10 ms per fault rather
// than timing a physical disk.
type MemPager struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
	// I/O counters are atomics: ReadPage holds only the read lock, so any
	// number of concurrent readers may bump Reads at once.
	reads  atomic.Int64
	writes atomic.Int64
}

// NewMemPager returns an empty in-memory pager with the given page size
// (DefaultPageSize if pageSize <= 0).
func NewMemPager(pageSize int) *MemPager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemPager{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (m *MemPager) PageSize() int { return m.pageSize }

// NumPages returns the number of allocated pages.
func (m *MemPager) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Allocate reserves a new zeroed page.
func (m *MemPager) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pages) >= int(InvalidPageID) {
		return InvalidPageID, errors.New("storage: pager full")
	}
	m.pages = append(m.pages, make([]byte, m.pageSize))
	return PageID(len(m.pages) - 1), nil
}

// ReadPage copies page id into buf.
func (m *MemPager) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	if len(buf) < m.pageSize {
		return fmt.Errorf("storage: read buffer %d smaller than page size %d", len(buf), m.pageSize)
	}
	copy(buf, m.pages[id])
	m.reads.Add(1)
	return nil
}

// WritePage stores buf as page id.
func (m *MemPager) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	if len(buf) > m.pageSize {
		return fmt.Errorf("storage: write of %d bytes exceeds page size %d", len(buf), m.pageSize)
	}
	copy(m.pages[id], buf)
	for i := len(buf); i < m.pageSize; i++ {
		m.pages[id][i] = 0
	}
	m.writes.Add(1)
	return nil
}

// Stats returns cumulative physical I/O counters.
func (m *MemPager) Stats() Stats {
	return Stats{Reads: m.reads.Load(), Writes: m.writes.Load()}
}

// Close releases the page storage.
func (m *MemPager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = nil
	return nil
}
