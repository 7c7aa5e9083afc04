package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

var updateFilterCounts = flag.Bool("update", false, "rewrite testdata/filter_counts.golden from this build's joins")

const filterCountsGolden = "testdata/filter_counts.golden"

// TestFilterCountsPinned is the exactness gate of the filter traversal: the
// work it does, not only the pairs it returns, is pinned row by row in
// testdata/filter_counts.golden. Inputs are workload.Degenerate's eight
// generators and two uniform 2k sets, two-set and self, under OBJ, BIJ and
// INJ, with no predicate, a MaxDiameter, TopK 5, a Region (which derives
// its own bound) and a Region under MaxDiameter +Inf (the unbounded window
// a live input runs), at Parallelism 1 and 2. A row holds the result
// digest, candidates, filter heap pops, verified nodes and pruned nodes;
// at Parallelism 1 also the node accesses of both trees and the half-planes
// every batch's pruner sets held when its filter returned. The deprecated
// Options.Parallelism is ignored, so a par2 row must repeat its par1 row's
// columns (top-k classes have no par2 row).
//
// A change to the filter that claims identical work must leave every byte
// of the golden as it is; a deliberate change re-records it with
// `go test ./internal/core -run TestFilterCountsPinned -update` and says
// which rows moved and why. Lines starting with # are not compared; -update
// drops them, so a re-record puts its header back by hand.
func TestFilterCountsPinned(t *testing.T) {
	cases := workload.Degenerate(400)
	cases = append(cases, workload.Case{Name: "uniform2k", P: workload.Uniform(2000, 11), Q: workload.Uniform(2000, 12)})
	var got bytes.Buffer
	for _, c := range cases {
		pool := buffer.NewPool(-1)
		tp := filterCountsTree(t, c.P, pool, 0)
		tq := filterCountsTree(t, c.Q, pool, 1)
		extent := geom.EmptyRect()
		for _, pts := range [][]rtree.PointEntry{c.P, c.Q} {
			for _, p := range pts {
				extent = extent.ExtendPoint(p.P)
			}
		}
		for _, self := range []bool{false, true} {
			q, form := tq, "two"
			if self {
				q, form = tp, "self"
			}
			for _, alg := range []Algorithm{AlgOBJ, AlgBIJ, AlgINJ} {
				for _, class := range filterCountsClasses(extent) {
					for _, par := range []int{1, 2} {
						if par > 1 && class.opts.TopK > 0 {
							continue
						}
						opts := class.opts
						opts.Algorithm, opts.SelfJoin, opts.Parallelism, opts.Collect = alg, self, par, true
						row := fmt.Sprintf("%s/%s/%v/%s/par%d", c.Name, form, alg, class.name, par)
						fmt.Fprintln(&got, filterCountsRow(t, row, pool, q, tp, opts))
					}
				}
			}
		}
	}
	if *updateFilterCounts {
		if err := os.WriteFile(filterCountsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filterCountsGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	var wantLines []string
	for _, line := range strings.Split(string(want), "\n") {
		if !strings.HasPrefix(line, "#") {
			wantLines = append(wantLines, line)
		}
	}
	bad := 0
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	if bad > 20 {
		t.Errorf("... %d differing lines in all", bad)
	}
}

type filterCountsClass struct {
	name string
	opts Options
}

// filterCountsClasses sizes the predicates to the input's extent: the
// diameter bound at 1 % of its diagonal, the window the central 30 % of it.
func filterCountsClasses(extent geom.Rect) []filterCountsClass {
	w, h := extent.MaxX-extent.MinX, extent.MaxY-extent.MinY
	c := extent.Center()
	window := &geom.Rect{MinX: c.X - 0.15*w, MinY: c.Y - 0.15*h, MaxX: c.X + 0.15*w, MaxY: c.Y + 0.15*h}
	return []filterCountsClass{
		{"full", Options{}},
		{"maxd", Options{MaxDiameter: 0.01 * math.Hypot(w, h)}},
		{"topk5", Options{TopK: 5}},
		{"window", Options{Region: window}},
		{"window-inf", Options{Region: window, MaxDiameter: math.Inf(1)}},
	}
}

// filterCountsTree bulk-loads pts on 1 KiB pages (42-point leaves, the
// batch an OBJ filter call runs on).
func filterCountsTree(t *testing.T, pts []rtree.PointEntry, pool *buffer.Pool, owner uint32) *rtree.Tree {
	t.Helper()
	tr, err := rtree.New(storage.NewMemPager(1024), pool, rtree.Config{PageSize: 1024, Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	return tr
}

// filterCountsRow runs one join and formats its counts.
func filterCountsRow(t *testing.T, row string, pool *buffer.Pool, tq, tp *rtree.Tree, opts Options) string {
	t.Helper()
	halfPlanes := 0
	j := &joiner{tq: tq, tp: tp, opts: opts}
	if opts.Parallelism <= 1 {
		j.filtered = func(queries []bulkQuery) {
			for i := range queries {
				halfPlanes += queries[i].pruners.Len()
			}
		}
	}
	pool.ResetStats()
	pairs, st, err := j.execute(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", row, err)
	}
	line := fmt.Sprintf("%s digest=%s results=%d candidates=%d pops=%d verified=%d pruned=%d",
		row, filterCountsDigest(pairs), st.Results, st.Candidates, st.FilterHeapPops, st.VerifiedNodes, st.NodesPruned)
	if opts.Parallelism <= 1 {
		line += fmt.Sprintf(" accesses=%d halfplanes=%d", pool.Stats().Accesses, halfPlanes)
	}
	return line
}

// filterCountsDigest hashes the result set in id order: ids and the exact
// bits of every ring.
func filterCountsDigest(pairs []Pair) string {
	sorted := append([]Pair(nil), pairs...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].P.ID != sorted[b].P.ID {
			return sorted[a].P.ID < sorted[b].P.ID
		}
		return sorted[a].Q.ID < sorted[b].Q.ID
	})
	h := fnv.New64a()
	for _, p := range sorted {
		c := p.Circle
		fmt.Fprintf(h, "%d,%d,%x,%x,%x;", p.P.ID, p.Q.ID,
			math.Float64bits(c.Center.X), math.Float64bits(c.Center.Y), math.Float64bits(c.Radius))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
