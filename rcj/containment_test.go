package rcj

import (
	"fmt"
	"math/rand"
	"path/filepath"
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
// it. It walks every node of every kind of index the executor reads: an
// STR-built and an insert-built tree, packed v3 files opened on the mem
// and file backends, the committed v2 counts corpus, and a live index's
// merged base+delta view after inserts and deletes in both parts.
func TestChildrenInsideParentMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pts := randomPoints(rng, 1500)
	eng := NewEngine(EngineConfig{PageSize: countsPageSize})
	cfg := IndexConfig{PageSize: countsPageSize}
	rec := &buffer.TagStats{}

	built, err := eng.BuildIndex(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()

	inserted, err := rtree.New(storage.NewMemPager(countsPageSize), buffer.NewPool(-1), rtree.Config{PageSize: countsPageSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := inserted.Insert(geom.Point{X: p.X, Y: p.Y}, p.ID); err != nil {
			t.Fatal(err)
		}
	}

	saved := filepath.Join(t.TempDir(), "p.rcjx")
	if err := built.Save(saved); err != nil {
		t.Fatal(err)
	}
	open := func(path string, be Backend) core.SpatialIndex {
		ix, err := eng.OpenIndex(path, IndexConfig{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix.tree.Tagged(rec)
	}

	// A base of the first 2/3, the rest inserted into the delta, then every
	// 7th point of either part deleted.
	cut := len(pts) * 2 / 3
	mutable, err := eng.NewMutableIndex(pts[:cut], MutableConfig{Index: cfg, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mutable.Close()
	if _, err := mutable.Insert(pts[cut:]...); err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for i := 0; i < len(pts); i += 7 {
		dead = append(dead, pts[i].ID)
	}
	if _, err := mutable.Delete(dead...); err != nil {
		t.Fatal(err)
	}
	var opts core.Options
	view, _, release, err := joinViews(mutable, mutable, rec, &opts)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if !opts.DisableFaceRule {
		t.Fatal("the live view has no tombstones: the deletes did not reach the base")
	}

	for _, tc := range []struct {
		name string
		ix   core.SpatialIndex
	}{
		{"str-built", built.tree.Tagged(rec)},
		{"insert-built", inserted},
		{"packed-v3/mem", open(saved, BackendMem)},
		{"packed-v3/file", open(saved, BackendFile)},
		{"committed-v2", open(countsV2Files[1], BackendMem)},
		{"live-view", view},
	} {
		nodes, err := checkContainment(tc.ix, tc.ix.Root(), geom.EmptyRect())
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if nodes < 10 {
			t.Errorf("%s: only %d nodes walked", tc.name, nodes)
		}
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
