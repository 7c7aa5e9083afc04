// Package live implements the updatable-index epoch model: an in-memory
// delta R-tree over a sealed immutable base, merged transparently at query
// time, with a compactor that seals delta+base into a new base generation.
//
// The paper's serving scenario is a living one — restaurants and residences
// appear (and close) over time — but every index the daemon serves is
// immutable-by-contract. This package bridges the two without giving up the
// immutable read path:
//
//   - The authoritative state is a point set mutated in batches. Each batch
//     produces a fresh immutable epoch: the sealed base (unchanged), a
//     rebuilt delta R-tree over the points not yet in the base, and a
//     tombstone set masking base points that have been deleted. Epochs are
//     RCU-style: readers pin the epoch current at query start and are never
//     affected by later mutations; writers swap the current-epoch pointer
//     under a mutex.
//
//   - Queries see one merged R-tree (see merged.go): base pages are served
//     verbatim (minus tombstoned points), delta pages are mapped into a
//     disjoint virtual page-id range, and a synthetic root joins the two.
//     All of the executor's pruning is conservative under the possibly
//     inflated base MBRs except the verification face rule, which callers
//     must disable while tombstones exist (Snapshot.DisableFaceRule).
//
//   - When the delta+tombstone load crosses Config.CompactEvery, a
//     background compaction seals the full current point set (sorted by ID,
//     so the STR build is reproducible byte-for-byte) into a new base via
//     Config.Seal, then reconciles: mutations that raced the seal stay in
//     the next epoch's delta/tombstones. The old base retires and is closed
//     once the last in-flight query releases it.
//
// Subscriptions observe mutations through bounded feeds (NewFeed): each
// Apply publishes one Update to every feed, non-blocking; a feed whose
// buffer is full is shed (closed) rather than allowed to stall writers.
package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Typed mutation errors. Batches are atomic: any invalid member rejects the
// whole batch with no state change.
var (
	// ErrClosed is returned by operations on a closed index.
	ErrClosed = errors.New("live: index closed")
	// ErrDuplicateID rejects an insert whose ID is already present.
	ErrDuplicateID = errors.New("live: duplicate point ID")
	// ErrUnknownID rejects a delete whose ID is not present.
	ErrUnknownID = errors.New("live: unknown point ID")
)

// DefaultCompactEvery is the delta+tombstone load that triggers a background
// compaction when Config.CompactEvery is zero.
const DefaultCompactEvery = 4096

// Base is one sealed, immutable generation of a live index: the tree the
// merged view reads base pages from, and how to release it once the last
// epoch referencing it has drained. A zero Tree means an empty base (an
// index born from nothing but inserts).
type Base struct {
	Tree  *rtree.Tree
	Count int
	// Path is where this generation is persisted ("" = memory-only).
	Path string
	// Close releases the generation's pager/pool/cache resources; nil is
	// treated as a no-op.
	Close func() error
}

// sealed wraps a Base with reference counting: queries acquire the base of
// their pinned epoch and release it when the traversal completes; a
// compaction retires the old base, which is closed once refs drain.
type sealed struct {
	mu      sync.Mutex
	refs    int
	retired bool
	closed  bool
	b       Base
}

func (s *sealed) acquire() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

func (s *sealed) release() {
	s.mu.Lock()
	s.refs--
	drop := s.retired && s.refs == 0 && !s.closed
	if drop {
		s.closed = true
	}
	s.mu.Unlock()
	if drop && s.b.Close != nil {
		s.b.Close()
	}
}

func (s *sealed) retire() {
	s.mu.Lock()
	s.retired = true
	drop := s.refs == 0 && !s.closed
	if drop {
		s.closed = true
	}
	s.mu.Unlock()
	if drop && s.b.Close != nil {
		s.b.Close()
	}
}

// epoch is one immutable snapshot of the index: sealed base + delta tree +
// tombstones. Readers pin an epoch and never see later mutations.
type epoch struct {
	seq    uint64
	base   *sealed
	delta  *rtree.Tree // nil when the delta set is empty
	deltaN int
	tombs  map[int64]struct{} // base point IDs masked out of reads
}

// Config parameterizes a live index.
type Config struct {
	// PageSize is the page size of delta trees and sealed generations
	// (default storage.DefaultPageSize).
	PageSize int
	// CompactEvery triggers a background compaction once the delta point
	// count plus tombstone count reaches it; 0 selects DefaultCompactEvery,
	// negative disables auto-compaction (Compact can still be called).
	CompactEvery int
	// Seal builds one new sealed generation from the full current point set
	// (pre-sorted by ascending ID, so the STR bulk load is reproducible) at
	// epoch seq. Supplied by the rcj layer, which owns index construction
	// and persistence. Required.
	Seal func(points []rtree.PointEntry, seq uint64) (Base, error)
	// OnCompactError, when non-nil, observes background compaction failures
	// (which otherwise only surface as a counter: the index keeps serving
	// from the un-compacted epoch).
	OnCompactError func(error)
}

// Index is the mutable live index: an authoritative point set served
// through immutable epochs. All methods are safe for concurrent use.
type Index struct {
	cfg Config

	mu      sync.Mutex
	cur     *epoch
	points  map[int64]geom.Point // authoritative current set
	baseIDs map[int64]geom.Point // id → coords as stored in the sealed base
	delta   map[int64]geom.Point // current \ base (plus moved points)
	tombs   map[int64]struct{}   // base ids not current (or superseded)
	feeds   map[*Feed]struct{}
	closed  bool

	compacting bool // an auto-compaction goroutine is scheduled/running
	compactMu  sync.Mutex
	wg         sync.WaitGroup

	inserts, deletes     int64
	compactions          int64
	compactFailures      int64
	compactNanos         int64
	lastCompactNanos     int64
	shedFeeds            int64
	appliedBatches       int64
	lastGenerationPath   string
	lastGenerationPoints int
}

// New wraps a sealed base into a live index. The base's points become the
// initial epoch; an empty Base{} starts the index from nothing.
func New(base Base, cfg Config) (*Index, error) {
	if cfg.Seal == nil {
		return nil, errors.New("live: Config.Seal is required")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	baseIDs := make(map[int64]geom.Point)
	if base.Tree != nil {
		if base.Tree.Root() >= deltaPageBase && base.Tree.Root() != storage.InvalidPageID {
			return nil, fmt.Errorf("live: base tree page ids exceed the virtual page space (root %d)", base.Tree.Root())
		}
		entries, err := base.Tree.ScanAll()
		if err != nil {
			return nil, fmt.Errorf("live: scan base: %w", err)
		}
		for _, e := range entries {
			if _, dup := baseIDs[e.ID]; dup {
				return nil, fmt.Errorf("live: base holds duplicate point ID %d", e.ID)
			}
			baseIDs[e.ID] = e.P
		}
	}
	points := make(map[int64]geom.Point, len(baseIDs))
	for id, p := range baseIDs {
		points[id] = p
	}
	ix := &Index{
		cfg:                  cfg,
		points:               points,
		baseIDs:              baseIDs,
		delta:                map[int64]geom.Point{},
		tombs:                map[int64]struct{}{},
		feeds:                map[*Feed]struct{}{},
		lastGenerationPath:   base.Path,
		lastGenerationPoints: len(baseIDs),
	}
	ix.cur = &epoch{seq: 0, base: &sealed{b: base}}
	return ix, nil
}

// Update is one applied mutation batch as published to subscription feeds.
// Slices are private copies; receivers may retain them.
type Update struct {
	Seq uint64
	Ins []rtree.PointEntry
	Del []rtree.PointEntry // deleted points with their last coordinates
}

// Apply atomically applies one batch of inserts and deletes, returning the
// new epoch sequence. The batch is validated first — duplicate insert IDs
// (against the current set or within the batch), unknown delete IDs, or an
// ID both inserted and deleted reject the whole batch unchanged.
func (ix *Index) Apply(ins []rtree.PointEntry, del []int64) (uint64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	if len(ins) == 0 && len(del) == 0 {
		return ix.cur.seq, nil
	}

	// Validate the whole batch before touching state.
	delSet := make(map[int64]struct{}, len(del))
	for _, id := range del {
		if _, ok := ix.points[id]; !ok {
			return 0, fmt.Errorf("%w: delete %d", ErrUnknownID, id)
		}
		if _, dup := delSet[id]; dup {
			return 0, fmt.Errorf("%w: delete %d twice in one batch", ErrUnknownID, id)
		}
		delSet[id] = struct{}{}
	}
	insSet := make(map[int64]struct{}, len(ins))
	for _, e := range ins {
		if _, dup := insSet[e.ID]; dup {
			return 0, fmt.Errorf("%w: insert %d twice in one batch", ErrDuplicateID, e.ID)
		}
		if _, conflict := delSet[e.ID]; conflict {
			return 0, fmt.Errorf("%w: point %d both inserted and deleted in one batch", ErrDuplicateID, e.ID)
		}
		if _, ok := ix.points[e.ID]; ok {
			return 0, fmt.Errorf("%w: insert %d", ErrDuplicateID, e.ID)
		}
		insSet[e.ID] = struct{}{}
	}

	// Stage the batch on copies of the (small) delta/tombstone mirrors, so a
	// failed delta build leaves the index byte-for-byte unchanged. The
	// authoritative points map is only touched at commit, which cannot fail.
	newDelta := clonePointMap(ix.delta)
	newTombs := copyIDSet(ix.tombs)
	delPts := make([]rtree.PointEntry, 0, len(del))
	for _, id := range del {
		delPts = append(delPts, rtree.PointEntry{P: ix.points[id], ID: id})
		delete(newDelta, id)
		if _, inBase := ix.baseIDs[id]; inBase {
			newTombs[id] = struct{}{}
		}
	}
	for _, e := range ins {
		// A base ID deleted and re-inserted stays tombstoned: the base holds
		// the stale copy, the delta the live one.
		newDelta[e.ID] = e.P
	}
	deltaTree, err := ix.buildDeltaTree(newDelta)
	if err != nil {
		return 0, err
	}

	// Commit.
	for _, e := range delPts {
		delete(ix.points, e.ID)
	}
	insPts := make([]rtree.PointEntry, 0, len(ins))
	for _, e := range ins {
		ix.points[e.ID] = e.P
		insPts = append(insPts, e)
	}
	ix.delta = newDelta
	ix.tombs = newTombs
	ix.inserts += int64(len(ins))
	ix.deletes += int64(len(del))
	ix.appliedBatches++
	ix.cur = &epoch{
		seq:    ix.cur.seq + 1,
		base:   ix.cur.base,
		delta:  deltaTree,
		deltaN: len(newDelta),
		tombs:  copyIDSet(newTombs),
	}
	ix.publishLocked(Update{Seq: ix.cur.seq, Ins: insPts, Del: delPts})
	ix.maybeCompactLocked()
	return ix.cur.seq, nil
}

// buildDeltaTree bulk-loads a private in-memory tree over one delta set,
// sorted by ID for a deterministic STR build. The tree is immutable once
// built (epochs never mutate their delta in place: the tree's node writes
// go through its pool, so in-place mutation would race concurrent snapshot
// readers), and is garbage-collected with its epoch.
func (ix *Index) buildDeltaTree(delta map[int64]geom.Point) (*rtree.Tree, error) {
	if len(delta) == 0 {
		return nil, nil
	}
	entries := sortedEntries(delta)
	tree, err := rtree.New(storage.NewMemPager(ix.cfg.PageSize), buffer.NewPool(-1), rtree.Config{PageSize: ix.cfg.PageSize})
	if err != nil {
		return nil, err
	}
	if err := tree.BulkLoad(entries, 0); err != nil {
		return nil, err
	}
	if tree.Root() >= deltaPageBase {
		return nil, fmt.Errorf("live: delta tree overflows the virtual page space")
	}
	return tree, nil
}

// maybeCompactLocked schedules a background compaction when the combined
// delta+tombstone load crosses the threshold. Caller holds ix.mu.
func (ix *Index) maybeCompactLocked() {
	every := ix.cfg.CompactEvery
	if every == 0 {
		every = DefaultCompactEvery
	}
	if every < 0 || ix.compacting || len(ix.delta)+len(ix.tombs) < every {
		return
	}
	ix.compacting = true
	ix.wg.Add(1)
	go func() {
		defer ix.wg.Done()
		err := ix.Compact()
		ix.mu.Lock()
		ix.compacting = false
		// Mutations kept arriving while we sealed; re-check the threshold so
		// a sustained write load cannot outrun a one-shot trigger.
		if err == nil && !ix.closed {
			ix.maybeCompactLocked()
		}
		ix.mu.Unlock()
		if err != nil && !errors.Is(err, ErrClosed) && ix.cfg.OnCompactError != nil {
			ix.cfg.OnCompactError(err)
		}
	}()
}

// Compact synchronously seals the current point set into a new base
// generation and installs an epoch whose delta holds only the mutations
// that raced the seal. Concurrent Compact calls serialize; compacting an
// index with an empty delta and no tombstones is a no-op.
func (ix *Index) Compact() error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	// Snapshot the point set. Mutations after this line land in the
	// reconciled delta below.
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return ErrClosed
	}
	if len(ix.delta) == 0 && len(ix.tombs) == 0 {
		ix.mu.Unlock()
		return nil
	}
	snap := sortedEntries(ix.points)
	genSeq := ix.cur.seq
	ix.mu.Unlock()

	// Seal outside the lock: bulk build + file write are the expensive part
	// and must not pause writers or readers.
	start := time.Now()
	nb, err := ix.cfg.Seal(snap, genSeq)
	elapsed := time.Since(start)
	if err != nil {
		ix.mu.Lock()
		ix.compactFailures++
		ix.mu.Unlock()
		return fmt.Errorf("live: seal generation %d: %w", genSeq, err)
	}
	newBase := &sealed{b: nb}

	// Reconcile under the lock: whatever changed since the snapshot becomes
	// the new delta/tombstones over the new base.
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		newBase.retire()
		return ErrClosed
	}
	newBaseIDs := make(map[int64]geom.Point, len(snap))
	for _, e := range snap {
		newBaseIDs[e.ID] = e.P
	}
	newDelta := map[int64]geom.Point{}
	newTombs := map[int64]struct{}{}
	for id, p := range ix.points {
		if bp, ok := newBaseIDs[id]; !ok || bp != p {
			newDelta[id] = p
			if ok {
				// Deleted and re-inserted elsewhere while sealing: the new
				// base holds the stale copy.
				newTombs[id] = struct{}{}
			}
		}
	}
	for id := range newBaseIDs {
		if _, ok := ix.points[id]; !ok {
			newTombs[id] = struct{}{}
		}
	}
	deltaTree, err := ix.buildDeltaTree(newDelta)
	if err != nil {
		// The epoch could not be built over the new base; keep serving the
		// old one, untouched.
		ix.compactFailures++
		ix.mu.Unlock()
		newBase.retire()
		return err
	}
	oldBase := ix.cur.base
	ix.baseIDs = newBaseIDs
	ix.delta = newDelta
	ix.tombs = newTombs
	ix.cur = &epoch{
		seq:    ix.cur.seq + 1,
		base:   newBase,
		delta:  deltaTree,
		deltaN: len(newDelta),
		tombs:  copyIDSet(newTombs),
	}
	ix.compactions++
	ix.compactNanos += elapsed.Nanoseconds()
	ix.lastCompactNanos = elapsed.Nanoseconds()
	ix.lastGenerationPath = nb.Path
	ix.lastGenerationPoints = len(snap)
	ix.mu.Unlock()

	// Old readers drain on their own epoch; the old base closes with its
	// last reference.
	oldBase.retire()
	return nil
}

// Close marks the index closed, waits for any background compaction, closes
// every subscription feed, and retires the current base. In-flight query
// snapshots stay valid until released.
func (ix *Index) Close() error {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return nil
	}
	ix.closed = true
	for f := range ix.feeds {
		delete(ix.feeds, f)
		close(f.C)
	}
	cur := ix.cur
	ix.mu.Unlock()
	ix.wg.Wait()
	cur.base.retire()
	return nil
}

// Stats is a point-in-time summary of the live index.
type Stats struct {
	Seq              uint64  // current epoch sequence
	Points           int     // live point count (base − tombstones + delta)
	BasePoints       int     // points in the sealed base generation
	DeltaPoints      int     // points only in the in-memory delta
	Tombstones       int     // base points masked out
	Generation       string  // path of the newest sealed generation ("" = memory-only)
	GenerationPoints int     // points sealed into that generation
	Inserts          int64   // cumulative applied inserts
	Deletes          int64   // cumulative applied deletes
	Batches          int64   // cumulative applied batches
	Compactions      int64   // completed compactions
	CompactFailures  int64   // failed compactions (index kept serving)
	CompactSeconds   float64 // cumulative wall time sealing generations
	LastCompactSecs  float64 // wall time of the most recent seal
	ShedFeeds        int64   // subscription feeds dropped for falling behind
}

// Stats returns current counters.
func (ix *Index) Stats() Stats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return Stats{
		Seq:              ix.cur.seq,
		Points:           len(ix.points),
		BasePoints:       len(ix.baseIDs),
		DeltaPoints:      len(ix.delta),
		Tombstones:       len(ix.tombs),
		Generation:       ix.lastGenerationPath,
		GenerationPoints: ix.lastGenerationPoints,
		Inserts:          ix.inserts,
		Deletes:          ix.deletes,
		Batches:          ix.appliedBatches,
		Compactions:      ix.compactions,
		CompactFailures:  ix.compactFailures,
		CompactSeconds:   float64(ix.compactNanos) / 1e9,
		LastCompactSecs:  float64(ix.lastCompactNanos) / 1e9,
		ShedFeeds:        ix.shedFeeds,
	}
}

// Len returns the current live point count.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.points)
}

// PointsSorted returns a copy of the current point set in ascending ID
// order — the canonical order every seal and rebuild uses.
func (ix *Index) PointsSorted() []rtree.PointEntry {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return sortedEntries(ix.points)
}

// Snapshot is a pinned epoch: an immutable view queries traverse while
// mutations and compactions proceed underneath. Release must be called
// exactly when the traversal completes (idempotent).
type Snapshot struct {
	Seq uint64
	e   *epoch
	rel sync.Once
}

// Acquire pins the current epoch.
func (ix *Index) Acquire() (*Snapshot, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return nil, ErrClosed
	}
	e := ix.cur
	e.base.acquire()
	return &Snapshot{Seq: e.seq, e: e}, nil
}

// Release unpins the snapshot's base generation; safe to call more than
// once.
func (s *Snapshot) Release() { s.rel.Do(s.e.base.release) }

// DisableFaceRule reports whether queries over this snapshot must disable
// the verification face rule: with tombstones, a base MBR may cover no live
// point, breaking the rule's nonempty-subtree assumption (every other
// pruning rule is conservative under inflated MBRs).
func (s *Snapshot) DisableFaceRule() bool { return len(s.e.tombs) > 0 }

// Feed is one subscription's bounded update channel. The publisher closes C
// when the feed is shed (buffer overflow) or the index closes; Shed
// distinguishes the two after C is drained.
type Feed struct {
	C    chan Update
	shed bool
}

// Shed reports whether the feed was dropped for falling behind. Valid after
// C closes (the publisher's write happens-before the close).
func (f *Feed) Shed() bool { return f.shed }

// NewFeed registers a bounded subscription feed and returns it with a
// consistent snapshot: the current epoch seq and point set. Every Update
// with Seq greater than the returned seq arrives on the feed, none is lost
// in between (registration and snapshot are atomic).
func (ix *Index) NewFeed(buf int) (*Feed, uint64, []rtree.PointEntry, error) {
	if buf <= 0 {
		buf = 64
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return nil, 0, nil, ErrClosed
	}
	f := &Feed{C: make(chan Update, buf)}
	ix.feeds[f] = struct{}{}
	return f, ix.cur.seq, sortedEntries(ix.points), nil
}

// CloseFeed unregisters a feed; its channel is closed if still registered.
func (ix *Index) CloseFeed(f *Feed) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.feeds[f]; ok {
		delete(ix.feeds, f)
		close(f.C)
	}
}

// publishLocked fans one update out to every feed, shedding feeds whose
// buffers are full: a stalled subscriber must not block writers, so it is
// disconnected (channel closed, Shed marked) and counted instead. Caller
// holds ix.mu.
func (ix *Index) publishLocked(u Update) {
	for f := range ix.feeds {
		select {
		case f.C <- u:
		default:
			delete(ix.feeds, f)
			f.shed = true
			close(f.C)
			ix.shedFeeds++
		}
	}
}

func sortedEntries(m map[int64]geom.Point) []rtree.PointEntry {
	out := make([]rtree.PointEntry, 0, len(m))
	for id, p := range m {
		out = append(out, rtree.PointEntry{P: p, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func copyIDSet(m map[int64]struct{}) map[int64]struct{} {
	out := make(map[int64]struct{}, len(m))
	for id := range m {
		out[id] = struct{}{}
	}
	return out
}

func clonePointMap(m map[int64]geom.Point) map[int64]geom.Point {
	out := make(map[int64]geom.Point, len(m))
	for id, p := range m {
		out[id] = p
	}
	return out
}
