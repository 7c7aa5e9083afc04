package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestFaceRuleKeepsEndpointCornerPair is the recorded false negative of the
// verification face rule: 42 points fill one leaf at the default page size,
// so the two points 3.5e-4 apart on the edge y = 10000 share the second
// leaf, whose MBR is the segment between them. Both corners of that MBR are
// the pair's own endpoints, and at coordinates of 7 000 a float distance
// from the rounded midpoint put them "strictly inside" their own circle. An
// endpoint's DiscSign is 0, so the face is not inside. The pair is a result
// (BruteForcePairs, which has no face rule, reports it).
func TestFaceRuleKeepsEndpointCornerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]rtree.PointEntry, 0, 44)
	for i := 0; i < 42; i++ {
		pts = append(pts, rtree.PointEntry{P: geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 9000}, ID: int64(i)})
	}
	pts = append(pts,
		rtree.PointEntry{P: geom.Point{X: 6945.106566149263, Y: 10000}, ID: 42},
		rtree.PointEntry{P: geom.Point{X: 6945.106918216387, Y: 10000}, ID: 43})

	want := pairSet(BruteForcePairs(pts, pts, true))
	if _, ok := want["42|43"]; !ok {
		t.Fatal("oracle does not report the near-coincident pair; the repro is broken")
	}
	tr := buildTree(t, pts, nil, 1, true)
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		got, _, err := Join(tr, tr, Options{Algorithm: alg, SelfJoin: true, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		gotSet := pairSet(got)
		if len(gotSet) != len(want) {
			t.Errorf("%v: %d pairs, oracle has %d", alg, len(gotSet), len(want))
		}
		for k := range want {
			if _, ok := gotSet[k]; !ok {
				t.Errorf("%v: missing pair %s", alg, k)
			}
		}
	}
}
