package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

func inDomain(t *testing.T, pts []rtree.PointEntry) {
	t.Helper()
	for _, p := range pts {
		if p.P.X < 0 || p.P.X > Domain || p.P.Y < 0 || p.P.Y > Domain {
			t.Fatalf("point outside domain: %+v", p)
		}
	}
}

func uniqueIDs(t *testing.T, pts []rtree.PointEntry) {
	t.Helper()
	seen := make(map[int64]bool, len(pts))
	for _, p := range pts {
		if seen[p.ID] {
			t.Fatalf("duplicate id %d", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestUniform(t *testing.T) {
	pts := Uniform(5000, 1)
	if len(pts) != 5000 {
		t.Fatalf("len %d", len(pts))
	}
	inDomain(t, pts)
	uniqueIDs(t, pts)
	// Determinism.
	again := Uniform(5000, 1)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatal("same seed produced different data")
		}
	}
	other := Uniform(5000, 2)
	if pts[0] == other[0] {
		t.Fatal("different seeds produced identical first point")
	}
	// Rough uniformity: each quadrant holds 25% ± 5%.
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.P.X > Domain/2 {
			i |= 1
		}
		if p.P.Y > Domain/2 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		frac := float64(c) / float64(len(pts))
		if frac < 0.20 || frac > 0.30 {
			t.Errorf("quadrant %d holds %.1f%%", i, 100*frac)
		}
	}
}

func TestGaussianClusters(t *testing.T) {
	pts := GaussianClusters(4000, 5, 300, 7)
	if len(pts) != 4000 {
		t.Fatalf("len %d", len(pts))
	}
	inDomain(t, pts)
	uniqueIDs(t, pts)
	// Clustered data is much more concentrated than uniform: mean nearest
	// cluster-center distance is bounded by a few σ. Just check the spread
	// is visibly non-uniform via quadrant imbalance OR pass trivially if
	// centers happen to be spread (probabilistic, so keep it loose): the
	// average pairwise distance of a clustered set with w=5, σ=300 is well
	// below the uniform expectation (~5214).
	var sum float64
	cnt := 0
	for i := 0; i < 300; i++ {
		for j := i + 1; j < 300; j++ {
			sum += pts[i].P.Dist(pts[j].P)
			cnt++
		}
	}
	if mean := sum / float64(cnt); mean > 5214 {
		t.Errorf("clustered data looks uniform: mean pairwise distance %.0f", mean)
	}
	if got := GaussianClusters(10, 0, 100, 1); len(got) != 10 {
		t.Fatalf("w=0 clamp failed: %d", len(got))
	}
}

func TestRealLikeProperties(t *testing.T) {
	for _, d := range []RealDataset{PP, SC, LO} {
		pts := RealLike(d, 3000)
		if len(pts) != 3000 {
			t.Fatalf("%s: len %d", d, len(pts))
		}
		inDomain(t, pts)
		uniqueIDs(t, pts)
	}
	// Default cardinalities follow Table 2.
	if PP.Cardinality() != 177983 || SC.Cardinality() != 172188 || LO.Cardinality() != 128476 {
		t.Fatal("Table 2 cardinalities wrong")
	}
	if got := RealLike(PP, 0); len(got) != CardPP {
		t.Fatalf("default cardinality: %d", len(got))
	}
}

// TestRealLikeSharedGeography verifies the property the join experiments
// rely on: the datasets co-locate. The mean distance from an SC point to its
// nearest PP point must be far below the uniform expectation.
func TestRealLikeSharedGeography(t *testing.T) {
	pp := RealLike(PP, 4000)
	sc := RealLike(SC, 500)
	var sum float64
	for _, s := range sc {
		best := math.Inf(1)
		for _, p := range pp {
			if d := s.P.Dist2(p.P); d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	mean := sum / float64(len(sc))
	// Uniform 4000 points in 10000² would give mean NN distance ≈ 79;
	// co-located clustered data must be tighter.
	if mean > 79 {
		t.Errorf("SC and PP do not share geography: mean NN distance %.1f", mean)
	}
}

func TestRealLikeSkew(t *testing.T) {
	pts := RealLike(PP, 8000)
	// Partition into a 10×10 grid; skewed data concentrates: the busiest
	// cell should hold many times the uniform share.
	var cells [100]int
	for _, p := range pts {
		cx := int(p.P.X / (Domain / 10))
		cy := int(p.P.Y / (Domain / 10))
		if cx > 9 {
			cx = 9
		}
		if cy > 9 {
			cy = 9
		}
		cells[cy*10+cx]++
	}
	max := 0
	for _, c := range cells {
		if c > max {
			max = c
		}
	}
	if float64(max) < 3*float64(len(pts))/100 {
		t.Errorf("real-like data not skewed: busiest cell holds %d of %d", max, len(pts))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := Uniform(100, 3)
	var buf bytes.Buffer
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip %d != %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], pts[i])
		}
	}
}

func TestReadPointsTwoColumn(t *testing.T) {
	in := strings.NewReader("1.5,2.5\n3,4\n")
	got, err := ReadPoints(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("two-column parse: %+v", got)
	}
	if got[0].P != (geom.Point{X: 1.5, Y: 2.5}) {
		t.Fatalf("coords: %+v", got[0].P)
	}
}

func TestReadPointsErrors(t *testing.T) {
	if _, err := ReadPoints(strings.NewReader("1,2,3,4\n")); err == nil {
		t.Fatal("4 fields accepted")
	}
	if _, err := ReadPoints(strings.NewReader("x,2,3\n")); err == nil {
		t.Fatal("bad id accepted")
	}
	if _, err := ReadPoints(strings.NewReader("1,x,3\n")); err == nil {
		t.Fatal("bad coord accepted")
	}
	got, err := ReadPoints(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %d", err, len(got))
	}
}

// TestGaussianClustersPinned hashes GaussianClusters' output bit for bit:
// perf/'s world and datagen draw from it, so a refactor of the generator
// must not move a single sample.
func TestGaussianClustersPinned(t *testing.T) {
	for _, c := range []struct {
		n, w  int
		sigma float64
		seed  int64
		want  string
	}{
		{4000, 10, 1000, 1, "ea1805b23537c6decdfdf0cbf44e31a2053021a36da7cfd21824cead7b7237ba"},
		{4000, 2, 1000, 2, "abe28f06896ff8a52fc51a5d63e0d63628449c13312560c35496a6865d3994b3"},
		{333, 0, 300, 7, "ac39ea850e3e31b1e2dde0efb189678a34f91cabde6517b4ac982f5acd793dce"},
	} {
		h := sha256.New()
		for _, e := range GaussianClusters(c.n, c.w, c.sigma, c.seed) {
			binary.Write(h, binary.LittleEndian, [3]uint64{math.Float64bits(e.P.X), math.Float64bits(e.P.Y), uint64(e.ID)})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("GaussianClusters(%d, %d, %g, %d) hashes to %s, want %s", c.n, c.w, c.sigma, c.seed, got, c.want)
		}
		// The pair's first set is the same draw.
		if a, _ := GaussianClusterPair(c.n, c.w, c.sigma, c.seed); !slices.Equal(a, GaussianClusters(c.n, c.w, c.sigma, c.seed)) {
			t.Errorf("GaussianClusterPair(%d, %d, %g, %d)'s first set differs from GaussianClusters", c.n, c.w, c.sigma, c.seed)
		}
	}
}
