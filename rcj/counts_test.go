package rcj

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The exact-count gate. A fixed-seed corpus is joined under six query
// classes, forced OBJ and INJ, at Parallelism 1, over every way an index
// reaches the executor — built in memory, reopened from a v2 file, from a
// packed v3 file through a tiny LRU, from v3 loaded whole, and behind a live
// index with a delta and tombstones on either side — and each run's result
// count, candidates, node accesses, page faults, pruned subtrees, bound-killed
// candidates and pair digest must equal testdata/join_counts.golden line for
// line. The file was recorded at the commit before the storage read path and
// the leaf walk were each folded into one place (ISSUE 20); the four rows it
// was allowed to move are annotated there. `go test ./rcj -run
// TestJoinCountsGolden -update` rewrites it from the current build ('#' lines
// are not compared and not regenerated).

var updateCounts = flag.Bool("update", false, "rewrite testdata/join_counts.golden from this build's joins")

const (
	countsGolden   = "testdata/join_counts.golden"
	countsPageSize = 256 // 10-entry leaves: ~1000 points make a four-level tree
)

// countsInputs is one way of standing the corpus up: the outer and inner
// index of the two-set classes, and the index the self class joins.
type countsInputs struct {
	eng        *Engine
	q, p, self *Index
}

// countsVariants lists the input forms by name. Each call builds from
// scratch — fresh engine, fresh pool — so no row sees another row's cache.
func countsVariants(t *testing.T, dir string) []struct {
	name string
	open func(t *testing.T) countsInputs
} {
	rng := rand.New(rand.NewSource(2008))
	ps, qs := randomPoints(rng, 1200), randomPoints(rng, 1000)
	cfg := IndexConfig{PageSize: countsPageSize}

	build := func(t *testing.T, eng *Engine, pts []Point) *Index {
		t.Helper()
		ix, err := eng.BuildIndex(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	// live stands pts up behind a mutable index: a base of the first 5/6, the
	// rest inserted into the delta, then every 17th base point deleted.
	live := func(t *testing.T, eng *Engine, pts []Point) *Index {
		t.Helper()
		cut := len(pts) * 5 / 6
		ix, err := eng.NewMutableIndex(pts[:cut], MutableConfig{Index: cfg, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		if _, err := ix.Insert(pts[cut:]...); err != nil {
			t.Fatal(err)
		}
		var dead []int64
		for i := 0; i < cut; i += 17 {
			dead = append(dead, pts[i].ID)
		}
		if _, err := ix.Delete(dead...); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// saved writes the corpus once per format and reopens it per row.
	saved := func(packed bool, be Backend, bufferPages int) func(t *testing.T) countsInputs {
		return func(t *testing.T) countsInputs {
			t.Helper()
			paths := [2]string{}
			for i, pts := range [][]Point{qs, ps} {
				paths[i] = filepath.Join(dir, fmt.Sprintf("%d-packed=%v.rcjx", i, packed))
				if _, err := os.Stat(paths[i]); err == nil {
					continue
				}
				ix := build(t, NewEngine(EngineConfig{PageSize: countsPageSize}), pts)
				save := ix.Save
				if packed {
					save = ix.SavePacked
				}
				if err := save(paths[i]); err != nil {
					t.Fatal(err)
				}
			}
			eng := NewEngine(EngineConfig{PageSize: countsPageSize, BufferPages: bufferPages, BufferShards: 1})
			var ixs [2]*Index
			for i, path := range paths {
				ix, err := eng.OpenIndex(path, IndexConfig{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ix.Close() })
				ixs[i] = ix
			}
			return countsInputs{eng: eng, q: ixs[0], p: ixs[1], self: ixs[1]}
		}
	}
	return []struct {
		name string
		open func(t *testing.T) countsInputs
	}{
		{"built", func(t *testing.T) countsInputs {
			eng := NewEngine(EngineConfig{PageSize: countsPageSize})
			q, p := build(t, eng, qs), build(t, eng, ps)
			return countsInputs{eng, q, p, p}
		}},
		{"v2-file", saved(false, BackendFile, 0)},
		// 1 % of the ~300 pages the two trees hold.
		{"v3-file-lru", saved(true, BackendFile, 3)},
		{"v3-mem", saved(true, BackendMem, 0)},
		{"live-inner", func(t *testing.T) countsInputs {
			eng := NewEngine(EngineConfig{PageSize: countsPageSize})
			q, p := build(t, eng, qs), live(t, eng, ps)
			return countsInputs{eng, q, p, p}
		}},
		{"live-outer", func(t *testing.T) countsInputs {
			eng := NewEngine(EngineConfig{PageSize: countsPageSize})
			q, p := live(t, eng, qs), build(t, eng, ps)
			return countsInputs{eng, q, p, q}
		}},
	}
}

// pairDigest is an order-independent fingerprint of a result set: FNV-1a
// over the pairs sorted by (P.ID, Q.ID), radius bits included.
func pairDigest(pairs []Pair) string {
	sorted := append([]Pair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].P.ID != sorted[j].P.ID {
			return sorted[i].P.ID < sorted[j].P.ID
		}
		return sorted[i].Q.ID < sorted[j].Q.ID
	})
	h := fnv.New64a()
	for _, pr := range sorted {
		fmt.Fprintf(h, "%d,%d,%x;", pr.P.ID, pr.Q.ID, math.Float64bits(pr.Radius))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestJoinCountsGolden(t *testing.T) {
	// The outer pushdown can only bite near the universe's edge (a subtree is
	// skipped when the midpoints it can form with TP's whole MBR miss the
	// window), so both windows sit in a corner.
	window := &Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100} // 1 % of the universe
	classes := []struct {
		name string
		self bool
		qry  Query
	}{
		{"full", false, Query{}},
		{"self", true, Query{}},
		{"window", false, Query{Region: window}},
		{"topk-window", false, Query{TopK: 10, Region: &Rect{MinX: 700, MinY: 700, MaxX: 1000, MaxY: 1000}}},
		{"limit", false, Query{Limit: 25}},
		{"maxd", false, Query{MaxDiameter: 30}},
	}
	var got bytes.Buffer
	for _, v := range countsVariants(t, t.TempDir()) {
		for _, c := range classes {
			for _, alg := range []Algorithm{OBJ, INJ} {
				in := v.open(t)
				qry := c.qry
				qry.Algorithm, qry.ForceAlgorithm, qry.Parallelism = alg, true, 1
				q, p := in.q, in.p
				if c.self {
					q, p = in.self, in.self
				}
				pairs, st, err := in.eng.RunCollect(bg, q, p, qry)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", v.name, c.name, alg, err)
				}
				fmt.Fprintf(&got, "%s/%s/%v results=%d candidates=%d accesses=%d faults=%d pruned=%d killed=%d digest=%s\n",
					v.name, c.name, alg, st.Results, st.Candidates, st.NodeAccesses, st.PageFaults,
					st.NodesPruned, st.BoundKilledCandidates, pairDigest(pairs))
			}
		}
	}
	if *updateCounts {
		if err := os.WriteFile(countsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(gotLines), len(want))
	}
	for i := range want {
		if gotLines[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, gotLines[i], want[i])
		}
	}
}
