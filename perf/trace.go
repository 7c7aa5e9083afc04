package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer: the program under test is not instrumented. A span
// has a name, start and end, the span that caused it, and the id of the
// operation it belongs to, shared down the stack. Spans stay in memory and
// are written out (to -trace-out) when the run ends.

// spanKind names the seam a span was recorded at.
type spanKind uint8

const (
	spanCore     spanKind = iota // core.JoinContext
	spanReadNode                 // SpatialIndex.ReadNode
	spanReadPage                 // Pager.ReadPage
	spanRouter                   // router handler, one per client op
	spanSub                      // one worker sub-query, send to body closed
	spanServer                   // worker or daemon handler
)

var spanNames = [...]string{"core.join", "rtree.read_node", "storage.read_page", "router.handle", "router.sub", "server.handle"}

func (k spanKind) String() string { return spanNames[k] }

// span holds no pointer, so the collector never scans the (large) span
// slice: a traced pass over a faulting buffer allocates a page per fault
// and would otherwise pay for its own trace on every collection.
type span struct {
	Kind   spanKind
	Op     int32
	ID     int32
	Parent int32 // 0: a root
	Start  int64 // ns since the tracer's epoch
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// MarshalJSON writes the span the way -trace-out documents it.
func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string `json:"name"`
		Op     int32  `json:"op"`
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}{s.Kind.String(), s.Op, s.ID, s.Parent, s.Start, s.End})
}

// tracer collects spans. Sequential stacks nest through cur (begin pushes,
// end pops); concurrent callers (the router's fan-out) pass their parent.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	op    int32
	cur   int32
	off   bool // recording suspended (warm-up passes)
}

// newTracer reserves room for a pass's worth of spans up front, so the
// timed pass does not pay for regrowing the slice.
func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)} }

func (t *tracer) setOp(op int) {
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

func (t *tracer) suspend(off bool) {
	t.mu.Lock()
	t.off = off
	t.mu.Unlock()
}

// begin opens a span under the innermost open one; id 0 means not recorded.
func (t *tracer) begin(kind spanKind) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Kind: kind, Op: t.op, ID: id, Parent: t.cur})
	t.cur = id
	t.spans[id-1].Start = time.Since(t.epoch).Nanoseconds()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = now
	t.cur = t.spans[id-1].Parent
	t.mu.Unlock()
}

// beginUnder opens a span with an explicit parent and leaves cur alone: the
// form concurrent callers use.
func (t *tracer) beginUnder(kind spanKind, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return 0
	}
	id := int32(len(t.spans) + 1)
	op := t.op
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{Kind: kind, Op: op, ID: id, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) endUnder(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// current returns the id of the innermost open span (the operation's root
// while a sequential pass is inside a handler).
func (t *tracer) current() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// ledger is the per-name account of a traced pass: total span time, self
// time (a span's duration minus the part of it its children cover) and span
// count.
type ledger struct {
	total map[spanKind]float64 // ms
	self  map[spanKind]float64 // ms
	count map[spanKind]int
}

// account computes self times. Children of one parent may overlap (parallel
// sub-queries), so the covered part is the union of their intervals.
func (t *tracer) account() ledger {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	l := ledger{total: map[spanKind]float64{}, self: map[spanKind]float64{}, count: map[spanKind]int{}}
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		covered := unionNanos(children[s.ID], s.Start, s.End)
		l.total[s.Kind] += float64(s.dur()) / 1e6
		l.self[s.Kind] += float64(s.dur()-covered) / 1e6
		l.count[s.Kind]++
	}
	return l
}

// perPass scales a ledger recorded over reps identical passes down to one.
func (l ledger) perPass(reps int) ledger {
	for k := range l.total {
		l.total[k] /= float64(reps)
		l.self[k] /= float64(reps)
		l.count[k] /= reps
	}
	return l
}

// unionNanos is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func unionNanos(ss []span, lo, hi int64) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			if curHi >= 0 {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi >= 0 {
		total += curHi - curLo
	}
	return total
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPager times every page read of the pager it wraps.
type tracedPager struct {
	storage.Pager
	t *tracer
}

func (p *tracedPager) ReadPage(id storage.PageID, buf []byte) error {
	s := p.t.begin(spanReadPage)
	err := p.Pager.ReadPage(id, buf)
	p.t.end(s)
	return err
}

// tracedIndex times every node read the join makes. The traversal helpers
// are re-implemented over its own ReadNode — node for node in the order the
// R-tree's own helpers read — so that every access of the join is a span
// and the access count equals the untraced run's.
type tracedIndex struct {
	tree *rtree.Tree
	t    *tracer
}

var _ core.SpatialIndex = (*tracedIndex)(nil)

func (x *tracedIndex) Root() storage.PageID { return x.tree.Root() }

func (x *tracedIndex) ReadNode(id storage.PageID) (*rtree.Node, error) {
	s := x.t.begin(spanReadNode)
	n, err := x.tree.ReadNode(id)
	x.t.end(s)
	return n, err
}

func (x *tracedIndex) VisitLeaves(fn func(*rtree.Node) error) error {
	_, err := x.VisitLeavesPruned(func(geom.Rect) bool { return false }, fn)
	return err
}

func (x *tracedIndex) VisitLeavesPruned(skip func(geom.Rect) bool, fn func(*rtree.Node) error) (int64, error) {
	root := x.Root()
	if root == storage.InvalidPageID {
		return 0, nil
	}
	n, err := x.ReadNode(root)
	if err != nil {
		return 0, err
	}
	if n.Leaf {
		if skip(n.MBR()) {
			return 1, nil
		}
		return 0, fn(n)
	}
	var skipped int64
	err = x.visit(n, skip, &skipped, func(_ storage.PageID, leaf *rtree.Node) error { return fn(leaf) })
	return skipped, err
}

// visit walks the subtree under an internal node already read, depth-first,
// skipping entries whose MBR satisfies skip.
func (x *tracedIndex) visit(n *rtree.Node, skip func(geom.Rect) bool, skipped *int64, fn func(storage.PageID, *rtree.Node) error) error {
	for _, e := range n.Children {
		if skip(e.MBR) {
			*skipped++
			continue
		}
		c, err := x.ReadNode(e.Child)
		if err != nil {
			return err
		}
		if c.Leaf {
			if err := fn(e.Child, c); err != nil {
				return err
			}
			continue
		}
		if err := x.visit(c, skip, skipped, fn); err != nil {
			return err
		}
	}
	return nil
}

func (x *tracedIndex) LeafPages() ([]storage.PageID, error) {
	pages, _, err := x.LeafPagesPruned(func(geom.Rect) bool { return false })
	return pages, err
}

func (x *tracedIndex) LeafPagesPruned(skip func(geom.Rect) bool) ([]storage.PageID, int64, error) {
	root := x.Root()
	if root == storage.InvalidPageID {
		return nil, 0, nil
	}
	n, err := x.ReadNode(root)
	if err != nil {
		return nil, 0, err
	}
	if n.Leaf {
		if skip(n.MBR()) {
			return nil, 1, nil
		}
		return []storage.PageID{root}, 0, nil
	}
	var (
		out     []storage.PageID
		skipped int64
	)
	err = x.visit(n, skip, &skipped, func(id storage.PageID, _ *rtree.Node) error {
		out = append(out, id)
		return nil
	})
	return out, skipped, err
}

func (x *tracedIndex) ScanAll() ([]rtree.PointEntry, error) {
	var out []rtree.PointEntry
	err := x.VisitLeaves(func(n *rtree.Node) error {
		out = n.AppendPointsTo(out)
		return nil
	})
	return out, err
}
