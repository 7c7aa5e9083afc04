package rcj

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
)

// l1GateForms stands one point set up in each physical form the executor
// reads: a freshly built tree, a packed v3 file read page by page through a
// small LRU, and a live index holding a delta and tombstones (whose point
// set is therefore NOT pts — the oracle reads Index.Points()).
var l1GateForms = []struct {
	name string
	open func(t *testing.T, eng *Engine, pts []Point, path string) *Index
}{
	{"built", func(t *testing.T, eng *Engine, pts []Point, _ string) *Index {
		ix, err := eng.BuildIndex(pts, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}},
	{"v3-file", func(t *testing.T, eng *Engine, pts []Point, path string) *Index {
		built, err := BuildIndex(pts, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer built.Close()
		if err := built.SavePacked(path); err != nil {
			t.Fatal(err)
		}
		ix, err := eng.OpenIndex(path, IndexConfig{Backend: BackendFile})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}},
	{"live", func(t *testing.T, eng *Engine, pts []Point, _ string) *Index {
		cut := len(pts) * 5 / 6
		ix, err := eng.NewMutableIndex(pts[:cut], MutableConfig{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
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
		if ls, _ := ix.LiveStats(); ls.DeltaPoints == 0 || ls.Tombstones == 0 {
			t.Fatalf("want a delta and tombstones, have %+v", ls)
		}
		return ix
	}},
}

// TestL1Gate is the equivalence gate of the Manhattan join on the one
// executor: Query{Metric: L1} × {two-set, self} × every input form × every
// predicate class × Parallelism {1, 2}, collected and streamed, equals the
// index-free oracle core.BruteForceL1Pairs post-filtered with Query.Matches
// (plus the ranking head for TopK, subset-of for a bare Limit). Run under
// -race it also covers the L1 stage on the parallel workers.
func TestL1Gate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ps, qs := testPoints(rng, 200, 0), testPoints(rng, 170, 0)
	weight := func(p Point) float64 { return float64((p.ID*7919)%997) + math.Sin(float64(p.ID)) }
	cases := []struct {
		name string
		qry  Query
	}{
		{"none", Query{}},
		{"topk", Query{TopK: 9}},
		{"maxd", Query{MaxDiameter: 70}},
		{"region", Query{Region: &Rect{MinX: 100, MinY: 150, MaxX: 600, MaxY: 700}}},
		{"mind", Query{MinDistance: 60}},
		{"limit", Query{Limit: 11}},
		{"weighted", Query{TopK: 8, Weight: weight}},
	}
	entries := func(ix *Index) []rtree.PointEntry {
		pts := pointsOf(t, ix)
		out := make([]rtree.PointEntry, len(pts))
		for i, pt := range pts {
			out[i] = pt.entry()
		}
		return out
	}
	dir := t.TempDir()
	for _, form := range l1GateForms {
		eng := NewEngine(EngineConfig{BufferPages: 16, BufferShards: 1})
		p := form.open(t, eng, ps, filepath.Join(dir, "p.rcjx"))
		defer p.Close()
		q := form.open(t, eng, qs, filepath.Join(dir, "q.rcjx"))
		defer q.Close()
		for _, self := range []bool{false, true} {
			q := q
			if self {
				q = p
			}
			full := fromCorePairs(core.BruteForceL1Pairs(entries(p), entries(q), self))
			if len(full) < 100 {
				t.Fatalf("%s self=%v: oracle has only %d pairs", form.name, self, len(full))
			}
			for _, c := range cases {
				want := postFilterQuery(full, c.qry)
				if c.qry.Weight != nil {
					want = append([]Pair(nil), full...)
					RankPairsByWeight(want, weight)
					want = want[:c.qry.TopK]
				}
				// Every predicate must bite without emptying the result ("none"
				// and the bare Limit post-filter to the full join).
				selective := c.name != "none" && c.name != "limit"
				if len(want) == 0 || selective == (len(want) == len(full)) {
					t.Fatalf("%s self=%v %s: case selects %d of %d pairs", form.name, self, c.name, len(want), len(full))
				}
				for _, par := range []int{1, 2} {
					label := fmt.Sprintf("%s self=%v %s par=%d", form.name, self, c.name, par)
					qry := c.qry
					qry.Metric, qry.Parallelism = L1, par
					var st Stats
					qry.Stats = &st
					collected, _, err := eng.RunCollect(bg, q, p, qry)
					streamed, serr := Collect(eng.Run(bg, q, p, qry))
					if err != nil || serr != nil {
						t.Fatalf("%s: collect %v, stream %v", label, err, serr)
					}
					if st.Results != int64(len(streamed)) || st.NodeAccesses == 0 {
						t.Errorf("%s: stats %+v for %d pairs", label, st, len(streamed))
					}
					for how, got := range map[string][]Pair{"RunCollect": collected, "Collect(Run)": streamed} {
						switch {
						case qry.TopK > 0:
							// A ranking: same pairs in the same order.
							if len(got) != len(want) {
								t.Fatalf("%s %s: %d pairs, want %d", label, how, len(got), len(want))
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s %s: rank %d is %+v, want %+v", label, how, i, got[i], want[i])
								}
							}
						case qry.Limit > 0:
							if len(got) != qry.Limit {
								t.Fatalf("%s %s: %d pairs, want %d", label, how, len(got), qry.Limit)
							}
							if all := keySet(full); len(keySet(got)) != len(got) {
								t.Fatalf("%s %s: duplicate pairs", label, how)
							} else {
								for k := range keySet(got) {
									if !all[k] {
										t.Fatalf("%s %s: pair %v is not in the full join", label, how, k)
									}
								}
							}
						default:
							samePairs(t, label+" "+how, want, got)
						}
					}
				}
			}
		}
	}
}

// TestL1KeysAndValidation closes the hazard of putting two metrics on one
// path: an L1 query never shares a cache key with its L2 twin, its envelope
// stays L1, and the combinations with no L1 meaning are refused.
func TestL1KeysAndValidation(t *testing.T) {
	for _, base := range []Query{
		{}, {TopK: 5}, {MaxDiameter: 10, Region: &Rect{MaxX: 1, MaxY: 1}}, {Parallelism: 2, Limit: 3},
		// The algorithm an L1 query resolves to: only the metric differs.
		{Algorithm: INJ, ForceAlgorithm: true},
	} {
		l1 := base
		l1.Metric = L1
		if base.Canonical() == l1.Canonical() {
			t.Errorf("%+v: L1 and L2 share the key %q", base, l1.Canonical())
		}
		if env := BatchEnvelope([]Query{l1, l1}); env.Metric != L1 {
			t.Errorf("%+v: envelope of L1 members has metric %v", base, env.Metric)
		}
	}
	for _, bad := range []Query{
		{Metric: L1, Algorithm: OBJ, ForceAlgorithm: true},
		{Metric: L1, Algorithm: Brute, ForceAlgorithm: true},
		{Metric: L1 + 1},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Validate(%+v) = %v, want ErrBadQuery", bad, err)
		}
	}
	// What Resolve hands back must pass Validate again: sched and the
	// executor both re-validate a resolved query.
	rng := rand.New(rand.NewSource(5))
	ix := mustIndex(t, randomPoints(rng, 40), IndexConfig{})
	resolved, dec := resolve(Query{Metric: L1, Parallelism: 2}, ix, ix)
	if err := resolved.Validate(); err != nil {
		t.Errorf("resolved L1 query no longer validates: %v", err)
	}
	if dec.Rule != "fixed" || dec.Algorithm != INJ || dec.Parallelism != 2 || resolved.Metric != L1 {
		t.Errorf("L1 resolves to %+v (query %+v), want the fixed INJ echo", dec, resolved)
	}
}
