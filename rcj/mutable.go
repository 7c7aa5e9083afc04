package rcj

import (
	"errors"
	"fmt"

	"repro/internal/live"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ErrImmutableIndex is returned by mutation methods on an ordinary
// (immutable) index. Only indexes opened with OpenMutableIndex or built
// with NewMutableIndex accept Insert/Delete.
var ErrImmutableIndex = errors.New("rcj: index is immutable")

// Typed live-mutation errors, re-exported from the epoch layer so callers
// can match them without importing internals.
var (
	// ErrDuplicateID rejects an insert whose ID is already indexed.
	ErrDuplicateID = live.ErrDuplicateID
	// ErrUnknownID rejects a delete of an ID that is not indexed.
	ErrUnknownID = live.ErrUnknownID
)

// MutableConfig parameterizes a live (mutable) index.
type MutableConfig struct {
	// Index configures the sealed base: backend and page size (IndexConfig
	// semantics). Used by OpenMutableIndex to open the base and by every
	// compaction to build new generations.
	Index IndexConfig
	// CompactEvery triggers a background compaction once the in-memory
	// delta point count plus tombstone count reaches it; 0 selects
	// live.DefaultCompactEvery, negative disables auto-compaction
	// (Index.Compact still works).
	CompactEvery int
	// KeepGenerations, when > 0, prunes all but the newest that many
	// on-disk generation files after each compaction; 0 keeps everything.
	KeepGenerations int
	// OnCompactError, when non-nil, observes background compaction
	// failures. The index keeps serving its current epoch regardless.
	OnCompactError func(error)
}

// LiveStats is a point-in-time summary of a mutable index's epoch state.
type LiveStats struct {
	// Seq is the current epoch sequence, bumped by every applied mutation
	// batch and every compaction. Combined with the server's per-load
	// generation it keys result-cache entries, so cached results never
	// survive a mutation.
	Seq uint64
	// Points is the current live point count.
	Points int
	// BasePoints / DeltaPoints / Tombstones decompose it: points served
	// from the sealed base, points only in the in-memory delta, and base
	// points masked out by deletion.
	BasePoints  int
	DeltaPoints int
	Tombstones  int
	// Generation is the path of the newest sealed generation file ("" when
	// generations are memory-only), holding GenerationPoints points.
	Generation       string
	GenerationPoints int
	// Cumulative counters.
	Inserts         int64
	Deletes         int64
	Batches         int64
	Compactions     int64
	CompactFailures int64
	CompactSeconds  float64
	LastCompactSecs float64
	ShedFeeds       int64
}

// OpenMutableIndex opens a saved index as the sealed base of a live index:
// reads merge the base with an in-memory delta, Insert/Delete apply in
// atomic batches, and a background compactor seals delta+base into new
// generations once the delta grows past cfg.CompactEvery — persisted as
// storage.GenerationPath(src, seq), ".g<seq>" before the extension, when src
// is a local path; memory-only for a URL. Queries are snapshot-isolated: each
// traversal pins the epoch current at its start and is never affected by
// concurrent mutations or compactions.
func (e *Engine) OpenMutableIndex(src string, cfg MutableConfig) (*Index, error) {
	base, err := e.OpenIndex(src, cfg.Index)
	if err != nil {
		return nil, err
	}
	genBase := src
	if IsIndexURL(src) {
		genBase = ""
	}
	lx, err := live.New(
		live.Base{Tree: base.tree, Count: base.pts, Path: src, Close: base.Close},
		e.liveConfig(cfg, genBase),
	)
	if err != nil {
		base.Close()
		return nil, err
	}
	return &Index{live: lx, backend: base.backend}, nil
}

// NewMutableIndex builds a live index whose initial base holds points
// (which may be empty: an index born from nothing but inserts). Sealed
// generations stay in memory.
func (e *Engine) NewMutableIndex(points []Point, cfg MutableConfig) (*Index, error) {
	var base live.Base
	if len(points) > 0 {
		ixCfg := cfg.Index
		if ixCfg.PageSize <= 0 {
			ixCfg.PageSize = e.pageSize
		}
		b, err := buildIndex(points, ixCfg, e.pool, e.nextOwner.Add(1), true)
		if err != nil {
			return nil, err
		}
		base = live.Base{Tree: b.tree, Count: b.pts, Close: b.Close}
	}
	lx, err := live.New(base, e.liveConfig(cfg, ""))
	if err != nil {
		if base.Close != nil {
			base.Close()
		}
		return nil, err
	}
	return &Index{live: lx, backend: storage.BackendMem}, nil
}

// liveConfig assembles the epoch-layer configuration, binding compaction's
// seal step to this engine's builder and the generation naming scheme.
func (e *Engine) liveConfig(cfg MutableConfig, genBase string) live.Config {
	pageSize := cfg.Index.PageSize
	if pageSize <= 0 {
		pageSize = e.pageSize
	}
	return live.Config{
		PageSize:       pageSize,
		CompactEvery:   cfg.CompactEvery,
		OnCompactError: cfg.OnCompactError,
		Seal: func(entries []rtree.PointEntry, seq uint64) (live.Base, error) {
			pts := make([]Point, len(entries))
			for i, en := range entries {
				pts[i] = Point{X: en.P.X, Y: en.P.Y, ID: en.ID}
			}
			// The entries arrive sorted by ID, and buildIndex's STR pack is
			// deterministic for a fixed input order — so this build, and a
			// cold rcjjoin build over the ID-sorted dumped points, produce
			// byte-identical trees (and identical saved generations).
			sealed, err := buildIndex(pts, IndexConfig{PageSize: pageSize}, e.pool, e.nextOwner.Add(1), true)
			if err != nil {
				return live.Base{}, err
			}
			path := ""
			if genBase != "" {
				path = storage.GenerationPath(genBase, seq)
				if err := sealed.Save(path); err != nil {
					sealed.Close()
					return live.Base{}, err
				}
				if cfg.KeepGenerations > 0 {
					// Pruning only removes older generation files; serving
					// epochs read from memory, so no reader loses its pages.
					if _, err := storage.PruneGenerations(genBase, cfg.KeepGenerations); err != nil {
						sealed.Close()
						return live.Base{}, fmt.Errorf("prune generations: %w", err)
					}
				}
			}
			return live.Base{Tree: sealed.tree, Count: sealed.pts, Path: path, Close: sealed.Close}, nil
		},
	}
}

// Mutable reports whether the index accepts Insert/Delete.
func (ix *Index) Mutable() bool { return ix.live != nil }

// Insert adds points to a mutable index as one atomic batch, returning the
// new epoch sequence. A duplicate ID rejects the whole batch.
func (ix *Index) Insert(points ...Point) (uint64, error) {
	return ix.ApplyBatch(points, nil)
}

// Delete removes points by ID from a mutable index as one atomic batch,
// returning the new epoch sequence. An unknown ID rejects the whole batch.
func (ix *Index) Delete(ids ...int64) (uint64, error) {
	return ix.ApplyBatch(nil, ids)
}

// ApplyBatch applies inserts and deletes as one atomic batch: either every
// mutation lands in one new epoch, or none does (a duplicate or unknown ID,
// or a non-finite coordinate — ErrBadPoint — rejects it whole). Running
// queries keep their pinned snapshots; queries started after ApplyBatch
// returns see the full batch.
func (ix *Index) ApplyBatch(ins []Point, del []int64) (uint64, error) {
	if ix.live == nil {
		return 0, ErrImmutableIndex
	}
	entries, err := pointEntries(ins)
	if err != nil {
		return 0, err
	}
	return ix.live.Apply(entries, del)
}

// Compact synchronously seals the current point set into a new base
// generation (no-op when there is nothing to compact). Concurrent queries
// finish on their snapshots; the old generation is closed once its last
// reader drains.
func (ix *Index) Compact() error {
	if ix.live == nil {
		return ErrImmutableIndex
	}
	return ix.live.Compact()
}

// Epoch returns the current epoch sequence of a mutable index (0 for
// immutable indexes, whose state never changes).
func (ix *Index) Epoch() uint64 {
	if ix.live == nil {
		return 0
	}
	return ix.live.Stats().Seq
}

// LiveStats returns the epoch-state summary of a mutable index, and whether
// the index is mutable at all.
func (ix *Index) LiveStats() (LiveStats, bool) {
	if ix.live == nil {
		return LiveStats{}, false
	}
	s := ix.live.Stats()
	return LiveStats{
		Seq:              s.Seq,
		Points:           s.Points,
		BasePoints:       s.BasePoints,
		DeltaPoints:      s.DeltaPoints,
		Tombstones:       s.Tombstones,
		Generation:       s.Generation,
		GenerationPoints: s.GenerationPoints,
		Inserts:          s.Inserts,
		Deletes:          s.Deletes,
		Batches:          s.Batches,
		Compactions:      s.Compactions,
		CompactFailures:  s.CompactFailures,
		CompactSeconds:   s.CompactSeconds,
		LastCompactSecs:  s.LastCompactSecs,
		ShedFeeds:        s.ShedFeeds,
	}, true
}
