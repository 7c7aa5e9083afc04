package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/workload"
)

// rankedKeys returns a ranked result's (P id, Q id) keys in delivery order.
func rankedKeys(pairs []Pair) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int64{p.P.ID, p.Q.ID}
	}
	return out
}

// rankedRun runs one Gabriel TopK join and names how it left shortTopK:
// "short" when the short edges answered it, "bail" when Short gave up,
// "diagonal" when r reached the inputs' diagonal first (or started there).
// Both of the last two triangulate.
func rankedRun(t *testing.T, tq, tp SpatialIndex, opts Options) ([]Pair, string) {
	t.Helper()
	exit := "diagonal"
	j := &joiner{tq: tq, tp: tp, opts: opts, shortRound: func(_ float64, ok, done bool) {
		switch {
		case !ok:
			exit = "bail"
		case done:
			exit = "short"
		}
	}}
	pairs, _, err := j.execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return pairs, exit
}

// rankedLegs returns the TopK legs run on one input whose unconstrained
// pairs, sorted by the ranking, are ranked: k = 1, 7, 100 and more than the
// result has, each plain, and k = 7 and 100 under a MaxDiameter (the
// ranking's median diameter), a MinDistance (its lower quartile) and a
// Limit of 3.
func rankedLegs(ranked []Pair) []Options {
	var legs []Options
	for _, k := range []int{1, 7, 100, len(ranked) + 5} {
		legs = append(legs, Options{TopK: k})
	}
	if len(ranked) == 0 {
		return legs
	}
	median := 2 * ranked[len(ranked)/2].Circle.Radius
	quartile := 2 * ranked[len(ranked)/4].Circle.Radius
	for _, k := range []int{7, 100} {
		legs = append(legs,
			Options{TopK: k, MaxDiameter: median},
			Options{TopK: k, MinDistance: quartile},
			Options{TopK: k, Limit: 3},
			Options{TopK: k, MaxDiameter: median, MinDistance: quartile})
	}
	if median > 0 {
		// Tight enough that fewer than k pairs are admitted: the capped exit.
		legs = append(legs, Options{TopK: 100, MaxDiameter: 2 * ranked[0].Circle.Radius})
	}
	return legs
}

// TestRankedGabrielMatchesOBJ holds the ranked Gabriel path (shortTopK on
// the short Gabriel edges, then the triangulation's fallback) to forced
// OBJ's top-k and to the head of the diameter-sorted brute force, same
// pairs in the same order, on every workload.Degenerate generator at n =
// 160 (and 400 outside -race), two-set and self, under rankedLegs, plus a
// 3 x 2 input, too small for Short to give up, whose r reaches the
// diagonal. Both ways out of the short
// edges must be taken: twoclusters (all points in a cell or two) and
// duplicates must make Short give up, and uniform1e9 (coordinates near
// 1e9, where the cell arithmetic rounds) must be answered by it.
func TestRankedGabrielMatchesOBJ(t *testing.T) {
	sizes := []int{160, 400}
	if raceEnabled {
		sizes = sizes[:1]
	}
	cases := []workload.Case{
		{Name: "tiny", P: workload.Uniform(3, 1), Q: workload.Uniform(2, 2)},
	}
	for _, n := range sizes {
		for _, c := range workload.Degenerate(n) {
			c.Name = fmt.Sprintf("%s/n%d", c.Name, n)
			cases = append(cases, c)
		}
	}
	exits := map[string]map[string]int{} // generator -> exit -> runs
	for _, c := range cases {
		gen, _, _ := strings.Cut(c.Name, "/")
		if exits[gen] == nil {
			exits[gen] = map[string]int{}
		}
		for _, self := range []bool{false, true} {
			qs := c.Q
			if self {
				qs = c.P
			}
			pool := buffer.NewPool(-1)
			tp := buildTree(t, c.P, pool, 1, true)
			tq := tp
			if !self {
				tq = buildTree(t, c.Q, pool, 2, true)
			}
			ranked := BruteForcePairs(c.P, qs, self)
			sort.Slice(ranked, func(a, b int) bool { return pairBefore(ranked[a], ranked[b]) })
			for _, leg := range rankedLegs(ranked) {
				leg.SelfJoin, leg.Collect = self, true
				name := fmt.Sprintf("%s self=%v top%d maxd=%g mind=%g limit=%d", c.Name, self, leg.TopK, leg.MaxDiameter, leg.MinDistance, leg.Limit)
				want := rankedKeys(postFilter(ranked, leg))
				leg.Algorithm = AlgOBJ
				obj, _, err := Join(tq, tp, leg)
				if err != nil {
					t.Fatal(err)
				}
				if got := rankedKeys(obj); !slices.Equal(got, want) {
					t.Fatalf("%s: OBJ %v, brute force %v", name, got, want)
				}
				leg.Algorithm = AlgGabriel
				got, exit := rankedRun(t, tq, tp, leg)
				exits[gen][exit]++
				if keys := rankedKeys(got); !slices.Equal(keys, want) {
					t.Errorf("%s (%s): Gabriel %d pairs %v, brute force %d %v", name, exit, len(keys), keys, len(want), want)
				}
			}
		}
	}
	for gen, want := range map[string]string{"twoclusters": "bail", "duplicates": "bail", "uniform1e9": "short", "tiny": "diagonal"} {
		if exits[gen][want] == 0 {
			t.Errorf("%s: no run took the %s exit (exits %v)", gen, want, exits[gen])
		}
	}
	t.Logf("exits by generator: %v", exits)
}

// TestRankedGabrielCancels checks that a ranked Gabriel run ends on its
// context: Short polls the run's ctxErr.
func TestRankedGabrielCancels(t *testing.T) {
	pool := buffer.NewPool(-1)
	tp := buildTree(t, workload.Uniform(5000, 1), pool, 1, true)
	tq := buildTree(t, workload.Uniform(5000, 2), pool, 2, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	polled := false
	j := &joiner{tq: tq, tp: tp, opts: Options{Algorithm: AlgGabriel, TopK: 10}, shortRound: func(_ float64, ok, _ bool) { polled = !ok }}
	j.ctx = ctx
	j.topk = newTopK(j.opts)
	held := j.takeScratch()
	defer j.putScratch(held)
	if err := j.runGabriel(); err != context.Canceled || !polled {
		t.Fatalf("ranked run under a cancelled context: %v (Short stopped: %v), want context.Canceled from Short", err, polled)
	}
}
