package rcj

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// TestChildrenInsideParentMBR pins the containment invariant the bulk
// filter's live lists rest on: every child entry MBR and every leaf point
// of an index lies inside the MBR its parent entry records, so a Ψ−
// half-plane that contains a subtree's MBR contains everything read below
// it. It walks every node of every kind of index the executor reads (see
// indexKinds) and of the committed v2 counts corpus.
func TestChildrenInsideParentMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	eng := NewEngine(EngineConfig{PageSize: countsPageSize})
	rec := &buffer.TagStats{}
	kinds := indexKinds(t, eng, randomPoints(rng, 1500), countsPageSize)
	v2, err := eng.OpenIndex(countsV2Files[1], IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v2.Close() })
	kinds = append(kinds, indexKind{"committed-v2", v2})
	for _, k := range kinds {
		var opts core.Options
		view, _, release, err := joinViews(k.ix, k.ix, rec, &opts)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		if k.ix.live != nil && !opts.DisableFaceRule {
			t.Fatalf("%s: the live view has no tombstones: the deletes did not reach the base", k.name)
		}
		nodes, err := checkContainment(view, view.Root(), geom.EmptyRect())
		if err != nil {
			t.Errorf("%s: %v", k.name, err)
			continue
		}
		if nodes < 10 {
			t.Errorf("%s: only %d nodes walked", k.name, nodes)
		}
	}
}

// indexKind is one way of standing a point set up as an index.
type indexKind struct {
	name string
	ix   *Index
}

// indexKinds stands pts up, on pages of pageSize bytes, as every kind of
// index the executor reads: an STR-built and an insert-built tree, a packed
// v3 file opened on the mem and file backends, and a live index whose merged
// base+delta view holds the same points after inserts and deletes in both
// parts. The deletes take out ghosts — every 7th point transposed, under
// fresh IDs — put into the base and the delta beside the real points, so
// the view's tombstones and stale MBRs leave its point set unchanged.
func indexKinds(t *testing.T, eng *Engine, pts []Point, pageSize int) []indexKind {
	t.Helper()
	cfg := IndexConfig{PageSize: pageSize}
	built, err := eng.BuildIndex(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { built.Close() })

	pager := storage.NewMemPager(pageSize)
	pool := buffer.NewPool(-1)
	tree, err := rtree.New(pager, pool, rtree.Config{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tree.Insert(p.entry().P, p.ID); err != nil {
			t.Fatal(err)
		}
	}
	inserted := &Index{tree: tree, pager: pager, pool: pool, pts: len(pts)}
	t.Cleanup(func() { inserted.Close() })

	saved := filepath.Join(t.TempDir(), "p.rcjx")
	if err := built.Save(saved); err != nil {
		t.Fatal(err)
	}
	open := func(be Backend) *Index {
		ix, err := eng.OpenIndex(saved, IndexConfig{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}

	var ghosts []Point
	var dead []int64
	nextID := int64(0)
	for _, p := range pts {
		nextID = max(nextID, p.ID+1)
	}
	for i := 0; i < len(pts); i += 7 {
		ghosts = append(ghosts, Point{X: pts[i].Y, Y: pts[i].X, ID: nextID})
		dead = append(dead, nextID)
		nextID++
	}
	cut, gcut := len(pts)*2/3, len(ghosts)/2
	mutable, err := eng.NewMutableIndex(append(slices.Clone(pts[:cut]), ghosts[:gcut]...), MutableConfig{Index: cfg, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mutable.Close() })
	if _, err := mutable.Insert(append(slices.Clone(pts[cut:]), ghosts[gcut:]...)...); err != nil {
		t.Fatal(err)
	}
	if _, err := mutable.Delete(dead...); err != nil {
		t.Fatal(err)
	}

	return []indexKind{
		{"str-built", built},
		{"insert-built", inserted},
		{"packed-v3/mem", open(BackendMem)},
		{"packed-v3/file", open(BackendFile)},
		{"live-view", mutable},
	}
}

// checkContainment walks the subtree at page, whose parent entry records
// mbr (empty for the root, which has no parent entry), and returns the
// number of nodes read or the first entry found outside its parent's MBR.
func checkContainment(ix core.SpatialIndex, page storage.PageID, mbr geom.Rect) (int, error) {
	n, err := ix.ReadNode(page)
	if err != nil {
		return 0, err
	}
	if n.Leaf {
		for i, id := range n.IDs {
			if p := (geom.Point{X: n.Xs[i], Y: n.Ys[i]}); !mbr.IsEmpty() && !mbr.ContainsPoint(p) {
				return 0, fmt.Errorf("page %d: point %d at %v outside its parent entry's MBR %+v", page, id, p, mbr)
			}
		}
		return 1, nil
	}
	nodes := 1
	for _, e := range n.Children {
		if !mbr.IsEmpty() && !mbr.ContainsRect(e.MBR) {
			return 0, fmt.Errorf("page %d: child %d MBR %+v outside its parent entry's MBR %+v", page, e.Child, e.MBR, mbr)
		}
		sub, err := checkContainment(ix, e.Child, e.MBR)
		if err != nil {
			return 0, err
		}
		nodes += sub
	}
	return nodes, nil
}
