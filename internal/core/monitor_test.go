package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

func newInsertableTree(t *testing.T, pts []rtree.PointEntry, pool *buffer.Pool, owner uint32) *rtree.Tree {
	t.Helper()
	pager := storage.NewMemPager(storage.DefaultPageSize)
	tr, err := rtree.New(pager, pool, rtree.Config{Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(pts, 0); err != nil {
		t.Fatal(err)
	}
	return tr
}

// monitorMatchesRecompute drives the monitor through a stream of insertions
// and cross-checks the maintained pair set against a from-scratch join after
// every step.
func monitorMatchesRecompute(t *testing.T, self bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	initial := 60
	psAll := randomPoints(rng, 200)
	qsAll := randomPoints(rng, 200)

	pool := buffer.NewPool(-1)
	var m *Monitor
	var err error
	ps := append([]rtree.PointEntry(nil), psAll[:initial]...)
	qs := append([]rtree.PointEntry(nil), qsAll[:initial]...)
	if self {
		tr := newInsertableTree(t, ps, pool, 1)
		m, err = NewMonitor(tr, tr)
	} else {
		tp := newInsertableTree(t, ps, pool, 1)
		tq := newInsertableTree(t, qs, pool, 2)
		m, err = NewMonitor(tq, tp)
	}
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		var want []Pair
		if self {
			want = BruteForcePairs(ps, ps, true)
		} else {
			want = BruteForcePairs(ps, qs, false)
		}
		got := m.Pairs()
		if m.Len() != len(got) {
			t.Fatalf("%s: Len %d != snapshot %d", step, m.Len(), len(got))
		}
		ws := map[string]bool{}
		for _, p := range want {
			ws[fmt.Sprintf("%d|%d", p.P.ID, p.Q.ID)] = true
		}
		gs := map[string]bool{}
		for _, p := range got {
			k := fmt.Sprintf("%d|%d", p.P.ID, p.Q.ID)
			if gs[k] {
				t.Fatalf("%s: duplicate pair %s", step, k)
			}
			gs[k] = true
		}
		if len(ws) != len(gs) {
			t.Fatalf("%s: monitor has %d pairs, recompute %d", step, len(gs), len(ws))
		}
		for k := range ws {
			if !gs[k] {
				t.Fatalf("%s: monitor missing %s", step, k)
			}
		}
	}

	check("initial")
	for i := initial; i < initial+40; i++ {
		if self || i%2 == 0 {
			added, removed, err := m.AddP(psAll[i].P, psAll[i].ID)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, psAll[i])
			if self {
				// In a self-join P and Q are the same logical set.
			}
			_ = added
			_ = removed
		} else {
			if _, _, err := m.AddQ(qsAll[i].P, qsAll[i].ID); err != nil {
				t.Fatal(err)
			}
			qs = append(qs, qsAll[i])
		}
		if i%5 == 0 {
			check(fmt.Sprintf("after insert %d", i))
		}
	}
	check("final")
}

func TestMonitorBichromatic(t *testing.T) {
	monitorMatchesRecompute(t, false)
}

func TestMonitorSelfJoin(t *testing.T) {
	monitorMatchesRecompute(t, true)
}

func TestMonitorAddedRemovedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ps := randomPoints(rng, 80)
	qs := randomPoints(rng, 80)
	pool := buffer.NewPool(-1)
	tp := newInsertableTree(t, ps, pool, 1)
	tq := newInsertableTree(t, qs, pool, 2)
	m, err := NewMonitor(tq, tp)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Len()
	newPt := geom.Point{X: 5000, Y: 5000}
	added, removed, err := m.AddP(newPt, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != before+len(added)-len(removed) {
		t.Fatalf("Len %d != %d + %d - %d", m.Len(), before, len(added), len(removed))
	}
	// Every added pair involves the new point.
	for _, p := range added {
		if p.P.ID != 9999 {
			t.Errorf("added pair %d|%d does not involve the new P point", p.P.ID, p.Q.ID)
		}
	}
	// Every removed pair's circle covers the new point.
	for _, p := range removed {
		if geom.DiscSign(p.P.P, p.Q.P, newPt) > 0 {
			t.Errorf("removed pair %d|%d circle does not cover the new point", p.P.ID, p.Q.ID)
		}
	}
}

func TestMonitorDensePointStream(t *testing.T) {
	// All insertions land in one tight cluster, each killing pairs among
	// many near-equidistant neighbours.
	rng := rand.New(rand.NewSource(63))
	mk := func(n int, base int64) []rtree.PointEntry {
		pts := make([]rtree.PointEntry, n)
		for i := range pts {
			pts[i] = rtree.PointEntry{
				P:  geom.Point{X: 100 + rng.NormFloat64(), Y: 100 + rng.NormFloat64()},
				ID: base + int64(i),
			}
		}
		return pts
	}
	ps := mk(40, 0)
	qs := mk(40, 0)
	pool := buffer.NewPool(-1)
	tp := newInsertableTree(t, ps, pool, 1)
	tq := newInsertableTree(t, qs, pool, 2)
	m, err := NewMonitor(tq, tp)
	if err != nil {
		t.Fatal(err)
	}
	extra := mk(30, 1000)
	for _, e := range extra {
		if _, _, err := m.AddP(e.P, e.ID); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, e)
	}
	want := BruteForcePairs(ps, qs, false)
	if m.Len() != len(want) {
		t.Fatalf("monitor %d pairs, recompute %d", m.Len(), len(want))
	}
}

// TestMonitorMutationsMatchBruteForce is the monitor's oracle gate: random
// interleaved inserts and deletes on both sides (and on the one set of a
// self-join) must leave exactly the oracle's pairs. On workload.Degenerate
// at 160 points the oracle is BruteForcePairs after every step, and each
// step must report exactly the pairs it added and removed; on 20k points
// per side (10k present at a time, uniform and clustered; 4k under -race)
// it is the Delaunay oracle GabrielPairs after every batch of 100
// mutations.
func TestMonitorMutationsMatchBruteForce(t *testing.T) {
	for _, g := range workload.Degenerate(160) {
		for _, self := range []bool{false, true} {
			name := g.Name
			if self {
				name += "/self"
			}
			t.Run(name, func(t *testing.T) {
				monitorMutations(t, g.P, g.Q, self, 120, 1, BruteForcePairs)
			})
		}
	}
	n := 20000
	if raceEnabled {
		n = 4000
	}
	big := []workload.Case{
		{Name: fmt.Sprintf("uniform%d", n), P: workload.Uniform(n, 11), Q: workload.Uniform(n, 12)},
		{Name: fmt.Sprintf("gauss%d", n), P: workload.GaussianClusters(n, 8, 1000, 13), Q: workload.GaussianClusters(n, 8, 1000, 14)},
	}
	for _, g := range big {
		for _, self := range []bool{false, true} {
			name := g.Name
			if self {
				name += "/self"
			}
			t.Run(name, func(t *testing.T) {
				monitorMutations(t, g.P, g.Q, self, 400, 100, GabrielPairs)
			})
		}
	}
}

// monitorMutations starts a monitor on a random half of each side, applies
// steps random inserts and deletes, and compares its pairs with oracle's
// every checkEvery steps; checking every step, it also compares each
// step's reported changes with the set difference.
func monitorMutations(t *testing.T, P, Q []rtree.PointEntry, self bool, steps, checkEvery int, oracle func(ps, qs []rtree.PointEntry, self bool) []Pair) {
	rng := rand.New(rand.NewSource(64))
	// cur holds each side's present points, pool the absent
	// ones (deleted points go back and may return).
	var cur, pool [2][]rtree.PointEntry
	sides := 2
	if self {
		sides = 1
	}
	for s, pts := range [][]rtree.PointEntry{P, Q}[:sides] {
		pts = append([]rtree.PointEntry(nil), pts...)
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		n := len(pts) / 2
		cur[s], pool[s] = pts[:n:n], pts[n:]
	}
	bp := buffer.NewPool(-1)
	tp := newInsertableTree(t, cur[0], bp, 1)
	tq := tp
	if !self {
		tq = newInsertableTree(t, cur[1], bp, 2)
	}
	m, err := NewMonitor(tq, tp)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(pairs []Pair) map[monitorKey]bool {
		out := make(map[monitorKey]bool, len(pairs))
		for _, p := range pairs {
			k := monitorKey{p.P.ID, p.Q.ID}
			if out[k] {
				t.Fatalf("pair %v listed twice", k)
			}
			out[k] = true
		}
		return out
	}
	minus := func(a, b map[monitorKey]bool) map[monitorKey]bool {
		out := map[monitorKey]bool{}
		for k := range a {
			if !b[k] {
				out[k] = true
			}
		}
		return out
	}
	same := func(a, b map[monitorKey]bool) bool {
		return len(minus(a, b)) == 0 && len(minus(b, a)) == 0
	}
	qside := sides - 1 // a self-join's Q is its P
	prev := keys(m.Pairs())
	if want := keys(oracle(cur[0], cur[qside], self)); !same(prev, want) {
		t.Fatalf("initial join holds %d pairs, the oracle %d", len(prev), len(want))
	}
	for step := 0; step < steps; step++ {
		s := rng.Intn(sides)
		insert := len(cur[s]) == 0 || (len(pool[s]) > 0 && rng.Intn(2) == 0)
		from, to := &cur[s], &pool[s]
		if insert {
			from, to = to, from
		}
		i := rng.Intn(len(*from))
		e := (*from)[i]
		(*from)[i] = (*from)[len(*from)-1]
		*from = (*from)[:len(*from)-1]
		*to = append(*to, e)
		var added, removed []Pair
		switch {
		case insert && s == 0:
			added, removed, err = m.AddP(e.P, e.ID)
		case insert:
			added, removed, err = m.AddQ(e.P, e.ID)
		case s == 0:
			added, removed, err = m.DeleteP(e.P, e.ID)
		default:
			added, removed, err = m.DeleteQ(e.P, e.ID)
		}
		what := fmt.Sprintf("step %d (insert %v, side %d, point %d at %v)", step, insert, s, e.ID, e.P)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if (step+1)%checkEvery != 0 {
			continue
		}
		want := keys(oracle(cur[0], cur[qside], self))
		got := keys(m.Pairs())
		if !same(got, want) {
			t.Fatalf("%s: monitor holds %d pairs, the oracle %d; missing %v, extra %v",
				what, len(got), len(want), minus(want, got), minus(got, want))
		}
		if checkEvery == 1 {
			if a, r := keys(added), keys(removed); !same(a, minus(got, prev)) || !same(r, minus(prev, got)) {
				t.Fatalf("%s: reported +%d -%d, set difference +%d -%d",
					what, len(a), len(r), len(minus(got, prev)), len(minus(prev, got)))
			}
		}
		prev = got
	}
}

// BenchmarkMonitorInsert measures incremental maintenance: one point
// insertion into a live 10K x 10K join.
func BenchmarkMonitorInsert(b *testing.B) {
	pool := buffer.NewPool(-1)
	m, err := NewMonitor(buildTree(b, workload.Uniform(10000, 1), pool, 1, true),
		buildTree(b, workload.Uniform(10000, 2), pool, 2, true))
	if err != nil {
		b.Fatal(err)
	}
	fresh := workload.Uniform(200000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.AddP(fresh[i%len(fresh)].P, int64(1_000_000+i)); err != nil {
			b.Fatal(err)
		}
	}
}
