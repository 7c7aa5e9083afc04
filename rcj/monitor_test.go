package rcj

import (
	"math/rand"
	"testing"
)

func TestMonitorTracksJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ps := randomPoints(rng, 100)
	qs := randomPoints(rng, 100)
	ixP := mustIndex(t, ps, IndexConfig{})
	ixQ := mustIndex(t, qs, IndexConfig{})
	mo, err := NewMonitor(ixQ, ixP)
	if err != nil {
		t.Fatal(err)
	}
	baseline, _, err := testEng.RunCollect(bg, ixQ, ixP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if mo.Len() != len(baseline) {
		t.Fatalf("initial monitor %d pairs, join %d", mo.Len(), len(baseline))
	}

	// Stream in 30 new points on both sides; verify against a fresh join
	// over the union at the end.
	extraP := make([]Point, 15)
	extraQ := make([]Point, 15)
	for i := range extraP {
		extraP[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(1000 + i)}
		extraQ[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(2000 + i)}
	}
	for i := range extraP {
		if _, _, err := mo.AddP(extraP[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mo.AddQ(extraQ[i]); err != nil {
			t.Fatal(err)
		}
	}
	freshP := mustIndex(t, append(append([]Point(nil), ps...), extraP...), IndexConfig{})
	freshQ := mustIndex(t, append(append([]Point(nil), qs...), extraQ...), IndexConfig{})
	want, _, err := testEng.RunCollect(bg, freshQ, freshP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(want), keySet(mo.Pairs())) {
		t.Fatalf("monitor diverged: %d pairs vs %d", mo.Len(), len(want))
	}
}

func TestSelfMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randomPoints(rng, 80)
	ix := mustIndex(t, pts, IndexConfig{})
	mo, err := NewMonitor(ix, ix)
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]Point, 20)
	for i := range extra {
		extra[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(500 + i)}
		if _, _, err := mo.AddP(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	fresh := mustIndex(t, append(append([]Point(nil), pts...), extra...), IndexConfig{})
	want, _, err := testEng.RunCollect(bg, fresh, fresh, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(want), keySet(mo.Pairs())) {
		t.Fatalf("self monitor diverged: %d vs %d", mo.Len(), len(want))
	}
	for _, p := range mo.Pairs() {
		if p.P.ID >= p.Q.ID {
			t.Errorf("non-canonical pair %d,%d", p.P.ID, p.Q.ID)
		}
	}
}
