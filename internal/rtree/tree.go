package rtree

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/storage"
)

// SplitPolicy selects the algorithm used to split overfull nodes.
type SplitPolicy int

const (
	// SplitRStar is the R*-tree topological split (margin-driven axis
	// choice, overlap-minimizing distribution) — the paper's index.
	SplitRStar SplitPolicy = iota
	// SplitLinear is Guttman's original linear split: cheaper, but yields
	// more node overlap. Provided for the index-quality ablation.
	SplitLinear
)

// The R*-tree paper's recommended constants: the minimum node fill as a
// fraction of capacity, and the fraction of entries removed for forced
// reinsertion on the first overflow per level.
const (
	minFillRatio  = 0.4
	reinsertRatio = 0.3
)

// Config controls tree construction.
type Config struct {
	// PageSize is the on-disk page size in bytes; the paper's evaluation
	// uses 1024. Defaults to storage.DefaultPageSize when zero.
	PageSize int
	// SplitPolicy selects the node-split algorithm; the default is the R*
	// split the paper's indexes use.
	SplitPolicy SplitPolicy
	// Owner tags this tree's pages in a shared buffer pool.
	Owner uint32
}

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = storage.DefaultPageSize
	}
	return c
}

// Tree is a disk-page R*-tree over 2D points. All node reads go through the
// buffer pool, so the pool's miss counter is exactly the tree's page-fault
// count. Tree is not safe for concurrent mutation; concurrent reads are safe
// once building is complete.
type Tree struct {
	pager storage.Pager
	pool  *buffer.Pool
	cfg   Config

	maxLeaf, minLeaf   int
	maxChild, minChild int

	root   storage.PageID
	height int // 1 when the root is a leaf; 0 for an empty tree
	size   int // number of indexed points

	pageBuf []byte // scratch page for encoding

	tag *buffer.TagStats // per-request attribution for reads; nil on the base tree

	prefetch *buffer.Prefetcher // async readahead of child pages; nil = off
}

// ErrEmptyTree is returned by operations that need at least one point.
var ErrEmptyTree = errors.New("rtree: tree is empty")

// New creates an empty tree whose pages are allocated from pager and cached
// in pool. The pool may be shared with other trees (distinct Config.Owner).
func New(pager storage.Pager, pool *buffer.Pool, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if pager.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("rtree: pager page size %d != config page size %d", pager.PageSize(), cfg.PageSize)
	}
	t := &Tree{
		pager:   pager,
		pool:    pool,
		cfg:     cfg,
		pageBuf: make([]byte, cfg.PageSize),
	}
	t.maxLeaf = LeafCapacity(cfg.PageSize)
	t.maxChild = InternalCapacity(cfg.PageSize)
	if t.maxLeaf < 4 || t.maxChild < 4 {
		return nil, fmt.Errorf("rtree: page size %d too small (leaf capacity %d, internal capacity %d)", cfg.PageSize, t.maxLeaf, t.maxChild)
	}
	t.minLeaf = max(2, int(float64(t.maxLeaf)*minFillRatio))
	t.minChild = max(2, int(float64(t.maxChild)*minFillRatio))
	t.root = storage.InvalidPageID
	return t, nil
}

// Meta is the durable identity of a built tree: everything Open needs to
// reattach to an existing page image without touching a single point. It is
// what the storage superblock persists.
type Meta struct {
	// Root is the page id of the root node (storage.InvalidPageID when the
	// tree is empty).
	Root storage.PageID
	// Height is the number of levels (1 when the root is a leaf, 0 empty).
	Height int
	// Size is the number of indexed points.
	Size int
}

// Meta returns the tree's persistence metadata.
func (t *Tree) Meta() Meta {
	return Meta{Root: t.root, Height: t.height, Size: t.size}
}

// Open reattaches a tree to an existing page image: pager already holds the
// node pages (typically an index file reopened through storage.OpenIndexFile)
// and meta identifies the root. No points are read and no pages are written —
// the one page Open touches is the root, to verify it decodes and its
// leafness matches meta.Height, so gross superblock/page mismatches fail here
// rather than mid-query. cfg must carry the page size the pages were encoded
// with (and the Owner namespacing this tree in a shared pool).
func Open(pager storage.Pager, pool *buffer.Pool, cfg Config, meta Meta) (*Tree, error) {
	t, err := New(pager, pool, cfg)
	if err != nil {
		return nil, err
	}
	if meta.Size == 0 {
		if meta.Root != storage.InvalidPageID || meta.Height != 0 {
			return nil, fmt.Errorf("rtree: open empty tree with root %d height %d", meta.Root, meta.Height)
		}
		return t, nil
	}
	if meta.Height < 1 || meta.Root == storage.InvalidPageID || int(meta.Root) >= pager.NumPages() {
		return nil, fmt.Errorf("rtree: open with root %d height %d over %d pages", meta.Root, meta.Height, pager.NumPages())
	}
	t.root, t.height, t.size = meta.Root, meta.Height, meta.Size
	root, err := t.ReadNode(t.root)
	if err != nil {
		return nil, fmt.Errorf("rtree: open: read root: %w", err)
	}
	if root.Leaf != (meta.Height == 1) {
		return nil, fmt.Errorf("rtree: open: root leaf=%v inconsistent with height %d", root.Leaf, meta.Height)
	}
	return t, nil
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf, 0 when the
// tree is empty).
func (t *Tree) Height() int { return t.height }

// Root returns the page id of the root node, or storage.InvalidPageID for an
// empty tree.
func (t *Tree) Root() storage.PageID { return t.root }

// NumPages returns the number of pages this tree has allocated. With one
// tree per pager this equals the tree size in pages, the quantity buffer
// capacity is expressed against in the paper (buffer = x% of total tree
// sizes).
func (t *Tree) NumPages() int { return t.pager.NumPages() }

// Pool returns the buffer pool the tree reads through.
func (t *Tree) Pool() *buffer.Pool { return t.pool }

// PageSize returns the page size the tree's nodes are encoded for.
func (t *Tree) PageSize() int { return t.cfg.PageSize }

// LeafCap returns the leaf-node entry capacity.
func (t *Tree) LeafCap() int { return t.maxLeaf }

// Tagged returns a read-only view of the tree whose node reads are
// additionally attributed to tag (see buffer.TagStats): same pages, same
// pool, exact per-request hit/miss accounting under concurrency. The view
// shares all immutable state with t and is safe for concurrent reads
// alongside t and any other views; it must not be used to mutate the tree.
func (t *Tree) Tagged(tag *buffer.TagStats) *Tree {
	view := *t
	view.tag = tag
	view.pageBuf = nil // views are read-only; don't alias the write scratch page
	return &view
}

// SetPrefetcher attaches an async readahead executor: whenever a traversal
// faults an internal node in, the pages of all its children are offered to
// pf, so a high-latency pager (HTTP ranges) overlaps their round trips with
// the CPU work on the current node. The root's children are offered
// immediately (Open already cached the root, so its fault will never
// re-occur to trigger them). Call after Open and before the tree serves
// concurrent reads; tagged views created afterwards inherit it. The caller
// owns pf's lifecycle (Close it before the pager).
func (t *Tree) SetPrefetcher(pf *buffer.Prefetcher) {
	t.prefetch = pf
	if pf == nil || t.root == storage.InvalidPageID || t.height < 2 {
		return
	}
	if root, err := t.ReadNode(t.root); err == nil && !root.Leaf {
		t.offerChildren(root, readaheadDepth)
	}
}

// readaheadDepth bounds how many levels below a demand-faulted node the
// prefetch cascade may reach. Depth 2 covers a faulted node's children and
// grandchildren — enough for the cascade to stay ahead of a full-join
// traversal (each deeper demand fault renews the budget) while capping how
// much of a subtree a *pruned* traversal pays for: a selective query
// (top-k, region window) never drags in whole subtrees it will never visit.
const readaheadDepth = 2

// maxCoalescedRun caps how many adjacent sibling pages one coalesced
// readahead fetches in a single substrate operation: long enough to collapse
// a whole sibling fan-out (bulk load writes siblings contiguously) into one
// round trip, short enough that one request never pins a huge body.
const maxCoalescedRun = 16

// offerChildren enqueues readahead for every child page of an internal
// node. A prefetch load that turns out to be internal offers its own
// children from inside the worker while depth remains, so the readahead
// cascades ahead of the traversal without the demand path ever re-offering
// on warm reads; the prefetcher's bounded queue (shed on full) and the
// depth budget keep the cascade from flooding a selective query with the
// whole tree.
//
// Over a pager that can read page runs (storage.PageRangeReader — the HTTP
// backend), runs of adjacent sibling pages are offered as one coalesced
// batch job: bulk load allocates siblings contiguously, so a node's whole
// fan-out typically costs one ranged request instead of one per child.
func (t *Tree) offerChildren(n *Node, depth int) {
	if depth <= 0 {
		return
	}
	rr, _ := t.pager.(storage.PageRangeReader)
	if rr == nil || len(n.Children) < 2 {
		for _, e := range n.Children {
			t.offerChild(e.Child, depth)
		}
		return
	}
	ids := make([]storage.PageID, len(n.Children))
	for i, e := range n.Children {
		ids[i] = e.Child
	}
	slices.Sort(ids)
	for start := 0; start < len(ids); {
		end := start + 1
		for end < len(ids) && end-start < maxCoalescedRun && ids[end] == ids[end-1]+1 {
			end++
		}
		if end-start == 1 {
			t.offerChild(ids[start], depth)
		} else {
			t.offerChildRun(rr, ids[start], end-start, depth)
		}
		start = end
	}
}

// offerChild enqueues readahead for one child page.
func (t *Tree) offerChild(child storage.PageID, depth int) {
	t.prefetch.Offer(buffer.Key{Owner: t.cfg.Owner, Page: child}, func() (any, error) {
		v, err := t.loadNode(child)
		if err == nil {
			if cn, ok := v.(*Node); ok && !cn.Leaf {
				t.offerChildren(cn, depth-1)
			}
		}
		return v, err
	})
}

// offerChildRun enqueues one coalesced readahead for n adjacent sibling
// pages starting at first: one ranged fetch, decoded per page, with the
// cascade continuing under each child that turns out internal.
func (t *Tree) offerChildRun(rr storage.PageRangeReader, first storage.PageID, n, depth int) {
	keys := make([]buffer.Key, n)
	for i := range keys {
		keys[i] = buffer.Key{Owner: t.cfg.Owner, Page: first + storage.PageID(i)}
	}
	t.prefetch.OfferBatch(keys, func() ([]any, error) {
		pages, err := rr.ReadPageRange(first, n)
		if err != nil {
			return nil, err
		}
		vals := make([]any, n)
		for i, pg := range pages {
			nd, err := DecodeNode(pg)
			if err != nil {
				return nil, err
			}
			vals[i] = nd
			if !nd.Leaf {
				t.offerChildren(nd, depth-1)
			}
		}
		return vals, nil
	})
}

// loadNode reads and decodes page id straight from the pager, bypassing the
// buffer pool: the shared load path of demand reads and prefetches.
func (t *Tree) loadNode(id storage.PageID) (any, error) {
	buf := make([]byte, t.cfg.PageSize)
	if err := t.pager.ReadPage(id, buf); err != nil {
		return nil, err
	}
	n, err := DecodeNode(buf)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// ReadNode fetches the node stored at page id, consulting the buffer pool
// first. Misses are page faults. With a prefetcher attached, the first
// demand read of an internal node — a fault, or the first hit on a page
// readahead brought in — offers all its children for readahead, so the
// cascade's frontier advances with the traversal while warm re-reads of a
// cached node pay nothing for the hook.
func (t *Tree) ReadNode(id storage.PageID) (*Node, error) {
	v, first, err := t.pool.GetTaggedFirst(buffer.Key{Owner: t.cfg.Owner, Page: id}, t.tag, func() (any, error) {
		return t.loadNode(id)
	})
	if err != nil {
		return nil, err
	}
	n := v.(*Node)
	if t.prefetch != nil && first && !n.Leaf {
		t.offerChildren(n, readaheadDepth)
	}
	return n, nil
}

// writeNode serializes n to page id and refreshes the buffer pool.
func (t *Tree) writeNode(id storage.PageID, n *Node) error {
	if err := n.Encode(t.pageBuf); err != nil {
		return err
	}
	if err := t.pager.WritePage(id, t.pageBuf); err != nil {
		return err
	}
	t.pool.Put(buffer.Key{Owner: t.cfg.Owner, Page: id}, n)
	return nil
}

// allocNode allocates a fresh page for n and writes it.
func (t *Tree) allocNode(n *Node) (storage.PageID, error) {
	id, err := t.pager.Allocate()
	if err != nil {
		return storage.InvalidPageID, err
	}
	if err := t.writeNode(id, n); err != nil {
		return storage.InvalidPageID, err
	}
	return id, nil
}

// RootMBR returns the bounding rectangle of the whole tree.
func (t *Tree) RootMBR() (geom.Rect, error) {
	if t.root == storage.InvalidPageID {
		return geom.EmptyRect(), ErrEmptyTree
	}
	n, err := t.ReadNode(t.root)
	if err != nil {
		return geom.EmptyRect(), err
	}
	return n.MBR(), nil
}

// Check walks the whole tree verifying structural invariants: child MBRs
// contain their subtrees, entry counts respect capacity (root excepted for
// the minimum), leaves share one depth, and the point count matches Size.
// It is intended for tests.
func (t *Tree) Check() error {
	if t.root == storage.InvalidPageID {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("rtree: empty root but size=%d height=%d", t.size, t.height)
		}
		return nil
	}
	count, err := t.checkNode(t.root, t.height, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: reachable points %d != size %d", count, t.size)
	}
	return nil
}

func (t *Tree) checkNode(id storage.PageID, level int, isRoot bool) (int, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return 0, err
	}
	if n.Leaf != (level == 1) {
		return 0, fmt.Errorf("rtree: node %d leaf=%v at level %d of height %d", id, n.Leaf, level, t.height)
	}
	if n.Leaf {
		if n.NumPoints() > t.maxLeaf {
			return 0, fmt.Errorf("rtree: leaf %d overfull: %d > %d", id, n.NumPoints(), t.maxLeaf)
		}
		if !isRoot && n.NumPoints() < t.minLeaf {
			return 0, fmt.Errorf("rtree: leaf %d underfull: %d < %d", id, n.NumPoints(), t.minLeaf)
		}
		return n.NumPoints(), nil
	}
	if len(n.Children) > t.maxChild {
		return 0, fmt.Errorf("rtree: node %d overfull: %d > %d", id, len(n.Children), t.maxChild)
	}
	if !isRoot && len(n.Children) < t.minChild {
		return 0, fmt.Errorf("rtree: node %d underfull: %d < %d", id, len(n.Children), t.minChild)
	}
	if isRoot && len(n.Children) < 2 {
		return 0, fmt.Errorf("rtree: internal root %d has %d children", id, len(n.Children))
	}
	total := 0
	for _, e := range n.Children {
		child, err := t.ReadNode(e.Child)
		if err != nil {
			return 0, err
		}
		if got := child.MBR(); !e.MBR.ContainsRect(got) {
			return 0, fmt.Errorf("rtree: node %d entry MBR %+v does not contain child %d MBR %+v", id, e.MBR, e.Child, got)
		}
		c, err := t.checkNode(e.Child, level-1, false)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
