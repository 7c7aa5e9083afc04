package rcj

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Backend selects how a saved index's pages are accessed after OpenIndex:
// loaded fully into memory (BackendMem, the default), served by positional
// file reads (BackendFile), or fetched over HTTP range requests
// (BackendHTTP). See IndexConfig.Backend.
type Backend = storage.Backend

// The available pager backends.
const (
	BackendMem  = storage.BackendMem
	BackendFile = storage.BackendFile
	BackendHTTP = storage.BackendHTTP
)

// RemoteStats are the transfer counters of an http-backend index.
type RemoteStats = storage.RemoteStats

// ErrOriginChanged surfaces from joins over a remote index whose origin
// started serving a different file mid-session (ETag/Last-Modified
// mismatch): the index must be reopened to pick up the new build.
var ErrOriginChanged = storage.ErrOriginChanged

// PrefetchStats are the readahead counters of an index with async prefetch.
type PrefetchStats = buffer.PrefetchStats

// prefetchWorkers is the readahead worker count of an http-backend index:
// enough concurrent range requests to hide round trips behind the join's CPU
// work without hammering the origin. It is the measured knee: at 1ms
// injected RTT the cold-join wall clock flattens at 8 and 16 buys nothing.
// Local backends never prefetch (their page reads are cheaper than the
// scheduling would be).
const prefetchWorkers = 8

// ParseBackend parses a flag-style backend name ("mem", "file", "http").
func ParseBackend(s string) (Backend, error) { return storage.ParseBackend(s) }

// IsIndexFile reports whether the file at path is a saved index (starts with
// the index magic) rather than raw point data. Every format version matches.
func IsIndexFile(path string) bool { return storage.SniffIndexFile(path) }

// IsIndexURL reports whether src names a remote index (an http:// or
// https:// URL) rather than a local path.
func IsIndexURL(src string) bool { return storage.IsIndexURL(src) }

// Save durably writes the index to path in the versioned index file format
// (v3, the only one written): a checksummed superblock (page size, root
// page, entry count, dataset MBR), a page directory, the pages — leaves
// delta/varint-compressed, everything else verbatim — and a CRC-32 table
// over the uncompressed pages. The file is written atomically (temp +
// rename). A saved index reopens via OpenIndex or Engine.OpenIndex in any
// later process, skipping the build entirely, on every backend: over HTTP
// each buffer-pool miss fetches the compressed page. Files of the older v1
// and v2 formats still open, read-only. The conventional extension is
// ".rcjx".
func (ix *Index) Save(path string) error {
	if ix.live != nil {
		return fmt.Errorf("rcj: save is not supported on mutable indexes; compaction persists generations next to the base OpenMutableIndex opened")
	}
	meta := ix.tree.Meta()
	mbr, err := ix.tree.RootMBR()
	if err != nil {
		return fmt.Errorf("rcj: save index: %w", err)
	}
	sb := storage.Superblock{
		PageSize: ix.tree.PageSize(),
		NumPages: ix.pager.NumPages(),
		Root:     meta.Root,
		Height:   meta.Height,
		Count:    int64(meta.Size),
		MBR:      [4]float64{mbr.MinX, mbr.MinY, mbr.MaxX, mbr.MaxY},
	}
	if err := storage.WriteIndexFile(path, sb, ix.pager); err != nil {
		return fmt.Errorf("rcj: save index: %w", err)
	}
	return nil
}

// SavePacked is Save, from when Save wrote the unpacked v2 format.
//
// Deprecated: use Save; this forward stays only while perf/ names it.
func (ix *Index) SavePacked(path string) error { return ix.Save(path) }

// OpenIndex reopens an index previously written by Save, with a private
// buffer pool (the OpenIndex analogue of BuildIndex). src is a local path or
// an http(s) URL. cfg.Backend picks the page substrate; cfg.PageSize, when
// nonzero, must match the file's page size (storage.ErrPageSizeMismatch
// otherwise). Corrupt, truncated, or foreign files fail with the typed
// errors in package storage
// (ErrBadMagic, ErrBadChecksum, ErrTruncated, ...).
func OpenIndex(src string, cfg IndexConfig) (*Index, error) {
	capacity := cfg.BufferPages
	if capacity <= 0 {
		capacity = -1
	}
	return openIndex(src, cfg, buffer.NewPool(capacity), 0, false)
}

// OpenIndex reopens an index previously written by Save and attaches it to
// the engine's shared buffer pool under a fresh owner id, ready to serve
// concurrent joins alongside indexes the engine built itself. This is the
// cold-start path: one long-lived Engine serving joins over indexes it never
// built. src may be a local path or an http(s) URL — a remote index fetches
// pages by HTTP range request, verifies each against the format's per-page
// checksum table, and hides round trips behind async readahead. See the
// package-level OpenIndex for cfg semantics.
func (e *Engine) OpenIndex(src string, cfg IndexConfig) (*Index, error) {
	return openIndex(src, cfg, e.pool, e.nextOwner.Add(1), true)
}

// openIndex is the shared reopen path: validate the file (or URL), stand up
// the chosen pager backend, and reattach a tree to the page image without
// touching a single point. Remote opens additionally start the async
// prefetcher.
func openIndex(src string, cfg IndexConfig, pool *buffer.Pool, owner uint32, shared bool) (*Index, error) {
	var (
		pager   storage.Pager
		sb      storage.Superblock
		remote  *storage.HTTPPager
		backend = cfg.Backend
		err     error
	)
	if storage.IsIndexURL(src) || cfg.Backend == storage.BackendHTTP {
		if !storage.IsIndexURL(src) {
			return nil, fmt.Errorf("rcj: open index %s: http backend wants an http(s) URL", src)
		}
		backend = storage.BackendHTTP
		remote, sb, err = storage.OpenIndexURL(src, storage.HTTPPagerConfig{})
		if err != nil {
			return nil, fmt.Errorf("rcj: open index %s: %w", src, err)
		}
		pager = remote
	} else {
		pager, sb, err = storage.OpenIndexFile(src, cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("rcj: open index %s: %w", src, err)
		}
	}
	if cfg.PageSize > 0 && cfg.PageSize != sb.PageSize {
		pager.Close()
		return nil, fmt.Errorf("rcj: open index %s: %w: file has %d, config wants %d",
			src, storage.ErrPageSizeMismatch, sb.PageSize, cfg.PageSize)
	}
	tree, err := rtree.Open(pager, pool, rtree.Config{PageSize: sb.PageSize, Owner: owner}, rtree.Meta{
		Root:   sb.Root,
		Height: sb.Height,
		Size:   int(sb.Count),
	})
	if err != nil {
		pager.Close()
		return nil, fmt.Errorf("rcj: open index %s: %w", src, err)
	}
	// The superblock's MBR must agree bit-for-bit with the root page: both
	// derive from the same node encoding, so any difference means the pages
	// and metadata are from different builds.
	mbr, err := tree.RootMBR()
	if err != nil {
		pager.Close()
		return nil, fmt.Errorf("rcj: open index %s: %w", src, err)
	}
	if (geom.Rect{MinX: sb.MBR[0], MinY: sb.MBR[1], MaxX: sb.MBR[2], MaxY: sb.MBR[3]}) != mbr {
		pager.Close()
		return nil, fmt.Errorf("rcj: open index %s: %w: superblock MBR %v != root MBR %+v",
			src, storage.ErrCorrupt, sb.MBR, mbr)
	}
	ix := &Index{tree: tree, pager: pager, pool: pool, pts: int(sb.Count), owner: owner, shared: shared,
		backend: backend, remote: remote}
	if remote != nil {
		ix.prefetch = buffer.NewPrefetcher(pool, prefetchWorkers, 0)
		tree.SetPrefetcher(ix.prefetch)
	}
	return ix, nil
}
