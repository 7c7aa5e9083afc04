package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// pairKeys returns a result's (P id, Q id) keys in order.
func pairKeys(pairs []Pair) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int64{p.P.ID, p.Q.ID}
	}
	slices.SortFunc(out, func(a, b [2]int64) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// TestJoinMetamorphic checks the symmetries of the join, bit-exact: swapping
// the axes, negating one axis and scaling by 2^k change every coordinate
// exactly and no sign of DiscSign, Orient2D (up to a flip the mesh does not
// see) or InCircle, so they must leave the pair set unchanged. It runs on
// every workload.Degenerate generator at n = 160 and 400 (160 alone under
// -race), two-set and self, on the Gabriel path and on forced OBJ, over
// STR-built trees.
func TestJoinMetamorphic(t *testing.T) {
	transforms := []struct {
		name string
		f    func(x, y float64) (float64, float64)
	}{
		{"swap-axes", func(x, y float64) (float64, float64) { return y, x }},
		{"negate-x", func(x, y float64) (float64, float64) { return -x, y }},
		{"scale-2^-7", func(x, y float64) (float64, float64) { return math.Ldexp(x, -7), math.Ldexp(y, -7) }},
		{"scale-2^20", func(x, y float64) (float64, float64) { return math.Ldexp(x, 20), math.Ldexp(y, 20) }},
	}
	apply := func(pts []rtree.PointEntry, f func(x, y float64) (float64, float64)) []rtree.PointEntry {
		out := slices.Clone(pts)
		for i := range out {
			out[i].P.X, out[i].P.Y = f(out[i].P.X, out[i].P.Y)
		}
		return out
	}
	join := func(ps, qs []rtree.PointEntry, self bool, alg Algorithm) [][2]int64 {
		pool := buffer.NewPool(-1)
		tp := buildTree(t, ps, pool, 1, true)
		tq := tp
		if !self {
			tq = buildTree(t, qs, pool, 2, true)
		}
		pairs, _, err := Join(tq, tp, Options{Algorithm: alg, SelfJoin: self, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		return pairKeys(pairs)
	}
	sizes := []int{160, 400}
	if raceEnabled {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for _, c := range workload.Degenerate(n) {
			for _, self := range []bool{false, true} {
				name := fmt.Sprintf("%s/n%d/self=%v", c.Name, n, self)
				want := join(c.P, c.Q, self, AlgOBJ)
				for _, alg := range []Algorithm{AlgGabriel, AlgOBJ} {
					for _, tr := range transforms {
						if got := join(apply(c.P, tr.f), apply(c.Q, tr.f), self, alg); !slices.Equal(got, want) {
							t.Errorf("%s %s under %s: %d pairs, untransformed %d", name, alg, tr.name, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestGabrielStopsOnCancel checks that the triangulation polls its stop
// (runGabriel's is the run's ctxErr) and ends on the stop's error.
func TestGabrielStopsOnCancel(t *testing.T) {
	polls := 0
	j := &joiner{}
	stop := func() error {
		polls++
		return errStop
	}
	if _, _, err := j.gabrielPairs(workload.Uniform(5000, 1), workload.Uniform(5000, 2), stop); err != errStop || polls != 1 {
		t.Fatalf("gabrielPairs under a failing stop: %v after %d polls, want the stop's error after 1", err, polls)
	}
}

var errStop = fmt.Errorf("stop")

// TestGabrielTooWide holds the Gabriel path to brute force at the edge of
// the triangulation's range: at ±1e300 the points are triangulated, at
// ±1e307 the super triangle would overflow, so core.GabrielPairs falls back
// to BruteForcePairs and a forced AlgGabriel join to OBJ, two-set and self.
// Products of such coordinates overflow every float filter, so each
// predicate is settled in rationals: the inputs are small.
func TestGabrielTooWide(t *testing.T) {
	n := 60
	if raceEnabled {
		n = 30
	}
	for _, c := range []struct {
		reach float64
		fits  bool
	}{{1e300, true}, {1e307, false}} {
		scale := func(pts []rtree.PointEntry) []rtree.PointEntry {
			out := slices.Clone(pts)
			for i := range out {
				out[i].P.X = (out[i].P.X/workload.Domain*2 - 1) * c.reach
				out[i].P.Y = (out[i].P.Y/workload.Domain*2 - 1) * c.reach
			}
			return out
		}
		ps, qs := scale(workload.Uniform(n, 1)), scale(workload.Uniform(n, 2))
		box := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
		for _, p := range append(slices.Clone(ps), qs...) {
			box = box.ExtendPoint(p.P)
		}
		if GabrielFits(box) != c.fits {
			t.Fatalf("±%g: GabrielFits = %v, want %v", c.reach, !c.fits, c.fits)
		}
		pool := buffer.NewPool(-1)
		tp, tq := buildTree(t, ps, pool, 1, true), buildTree(t, qs, pool, 2, true)
		for _, self := range []bool{false, true} {
			name := fmt.Sprintf("±%g/self=%v", c.reach, self)
			qs, outer := qs, tq
			if self {
				qs, outer = ps, tp
			}
			want := pairKeys(BruteForcePairs(ps, qs, self))
			if got := pairKeys(GabrielPairs(ps, qs, self)); !slices.Equal(got, want) {
				t.Errorf("%s: GabrielPairs %d pairs, brute force %d", name, len(got), len(want))
			}
			pairs, _, err := Join(outer, tp, Options{Algorithm: AlgGabriel, SelfJoin: self, Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := pairKeys(pairs); !slices.Equal(got, want) {
				t.Errorf("%s: forced AlgGabriel %d pairs, brute force %d", name, len(got), len(want))
			}
		}
	}
}

// TestGabrielFootprint measures what runGabriel's scratch holds per
// triangulated point against GabrielPointBytes, the figure the planner's
// memory cap divides by, unranked and ranked (on the short edges, and
// falling back to the triangulation on clustered input), and checks that
// scratch above gabrielKeepBytes is dropped before it is pooled while a
// small one is kept.
func TestGabrielFootprint(t *testing.T) {
	n := 1 << 15
	if raceEnabled {
		n = 1 << 12
	}
	pool := buffer.NewPool(-1)
	tp := buildTree(t, workload.Uniform(n, 1), pool, 1, true)
	tq := buildTree(t, workload.Uniform(n, 2), pool, 2, true)
	small := buildTree(t, workload.Uniform(500, 3), pool, 3, true)
	clusters := buildTree(t, workload.TwoDistantClusters(n, 50, 4), pool, 4, true)
	for _, c := range []struct {
		name   string
		tq, tp *rtree.Tree
		self   bool
		points int
		topk   int
	}{
		{"two-set", tq, tp, false, 2 * n, 0},
		{"self", tp, tp, true, n, 0},
		{"small", small, small, true, 500, 0},
		{"ranked two-set", tq, tp, false, 2 * n, 10},                // the short edges answer
		{"ranked self, clustered", clusters, clusters, true, n, 10}, // Short gives up: triangulated
	} {
		j := &joiner{tq: c.tq, tp: c.tp, ctx: context.Background(), opts: Options{Algorithm: AlgGabriel, SelfJoin: c.self, TopK: c.topk}}
		j.topk = newTopK(j.opts)
		if err := j.runGabriel(); err != nil {
			t.Fatal(err)
		}
		held := j.gabrielBytes()
		if per := float64(held) / float64(c.points); per > GabrielPointBytes {
			t.Errorf("%s: %d points hold %d bytes, %.0f a point, over GabrielPointBytes = %d", c.name, c.points, held, per, GabrielPointBytes)
		} else {
			t.Logf("%s: %d points hold %.1f MiB, %.0f B a point", c.name, c.points, float64(held)/(1<<20), per)
		}
		j.trimGabriel()
		if kept := j.gabrielBytes(); (held > gabrielKeepBytes) != (kept == 0) || kept != 0 && kept != held {
			t.Errorf("%s: %d bytes held, %d kept for the pool (keep bound %d)", c.name, held, kept, gabrielKeepBytes)
		}
	}
}

// TestGabrielEmissionOrder checks the order in which the Gabriel path emits
// its pairs, through GabrielPairs and a forced AlgGabriel join, against a
// test-side slices.SortFunc on (P id, Q id), on every workload.Degenerate
// generator, two-set and self, with ids renumbered negative, sparse (steps
// of 2⁴⁰, both signs) and duplicated (three points to an id). The pairs
// are brute force's on the original, distinct ids, renumbered: ids only
// name points, except that a self-join keeps a pair under its smaller id
// first and drops a pair of one id.
func TestGabrielEmissionOrder(t *testing.T) {
	ids := map[string]func(id int64) int64{
		"negative":   func(id int64) int64 { return -id - 1 },
		"sparse":     func(id int64) int64 { return (id - 200) << 40 },
		"duplicated": func(id int64) int64 { return id / 3 },
	}
	keys := func(pairs []Pair) [][2]int64 {
		out := make([][2]int64, len(pairs))
		for i, p := range pairs {
			out[i] = [2]int64{p.P.ID, p.Q.ID}
		}
		return out
	}
	byIDs := func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	}
	for _, c := range workload.Degenerate(160) {
		for name, f := range ids {
			renumber := func(pts []rtree.PointEntry) []rtree.PointEntry {
				out := slices.Clone(pts)
				for i := range out {
					out[i].ID = f(out[i].ID)
				}
				return out
			}
			ps, qsTwo := renumber(c.P), renumber(c.Q)
			pool := buffer.NewPool(-1)
			tp, tq := buildTree(t, ps, pool, 1, true), buildTree(t, qsTwo, pool, 2, true)
			for _, self := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/self=%v", c.Name, name, self)
				qs, outer := qsTwo, tq
				if self {
					qs, outer = ps, tp
				}
				cq := c.Q
				if self {
					cq = c.P
				}
				var want [][2]int64
				for _, k := range keys(BruteForcePairs(c.P, cq, self)) {
					a, b := f(k[0]), f(k[1])
					switch {
					case !self || a < b:
						want = append(want, [2]int64{a, b})
					case b < a:
						want = append(want, [2]int64{b, a})
					}
				}
				slices.SortFunc(want, byIDs)
				joined, _, err := Join(outer, tp, Options{Algorithm: AlgGabriel, SelfJoin: self, Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				for how, pairs := range map[string][]Pair{"GabrielPairs": GabrielPairs(ps, qs, self), "forced AlgGabriel": joined} {
					got := keys(pairs)
					if !slices.IsSortedFunc(got, byIDs) {
						t.Errorf("%s: %s emits out of (P id, Q id) order", label, how)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: %s emits %d pairs, brute force has %d (or other pairs)", label, how, len(got), len(want))
					}
				}
			}
		}
	}
}
