package rcj

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
)

// clampedPoints draws Gaussian clusters centred just outside the [0,10000]²
// domain and clamps the samples onto it, so most of them pile up on the
// edge lines — whole leaves end up with a segment for an MBR — and every
// third point gets a twin a few 1e-4 further along. Tiny pairs at large
// coordinates are where midpoint rounding exceeds CoverTol.
func clampedPoints(rng *rand.Rand, n int) []Point {
	clamp := func(v float64) float64 { return math.Max(0, math.Min(10000, v)) }
	pts := make([]Point, 0, n)
	for len(pts) < n {
		along, across := rng.Float64()*10000, -150.0
		if rng.Intn(2) == 0 {
			across = 10150
		}
		x, y := along, across+rng.NormFloat64()*300
		if rng.Intn(2) == 0 {
			x, y = y, x
		}
		p := Point{X: clamp(x), Y: clamp(y), ID: int64(len(pts))}
		pts = append(pts, p)
		if len(pts)%3 == 0 && len(pts) < n {
			d := (1 + rng.Float64()) * 2e-4
			pts = append(pts, Point{X: clamp(p.X + d), Y: clamp(p.Y + d), ID: int64(len(pts))})
		}
	}
	return pts
}

// TestFaceRulePackingIndependent is the property the face-rule fix
// restores: which leaves the points fall into must not change the answer.
// An STR-packed tree, an insert-built tree and a live index (base + delta)
// over the same near-coincident, edge-clamped points all return exactly the
// index-free oracle's self-join.
func TestFaceRulePackingIndependent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := clampedPoints(rng, 500)
		entries := make([]rtree.PointEntry, len(pts))
		for i, p := range pts {
			entries[i] = p.entry()
		}
		want := map[[2]int64]bool{}
		for _, pr := range core.BruteForcePairs(entries, entries, true) {
			want[[2]int64{pr.P.ID, pr.Q.ID}] = true
		}

		live, err := testEng.NewMutableIndex(pts[:300], MutableConfig{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		if _, err := live.Insert(pts[300:]...); err != nil {
			t.Fatal(err)
		}
		for name, ix := range map[string]*Index{
			"str":    mustIndex(t, pts, IndexConfig{}),
			"insert": insertBuiltIndex(t, pts),
			"live":   live,
		} {
			got, _, err := testEng.RunCollect(bg, ix, ix, Query{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameKeys(keySet(got), want) {
				t.Errorf("seed %d, %s index: %s", seed, name, diffKeys(keySet(got), want))
			}
		}
	}
}

func diffKeys(got, want map[[2]int64]bool) string {
	var missing, extra [][2]int64
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	return fmt.Sprintf("%d pairs, oracle has %d; missing %v, extra %v", len(got), len(want), missing, extra)
}
