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
		if !p.Circle.Covers(newPt) {
			t.Errorf("removed pair %d|%d circle does not cover the new point", p.P.ID, p.Q.ID)
		}
	}
}

func TestMonitorDensePointStream(t *testing.T) {
	// All insertions into one tight cluster stress the stabbing index's
	// small-radius bands.
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
