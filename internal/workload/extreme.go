package workload

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// This file holds the adversarial distributions of the result-size study —
// the paper's second future-work direction ("determine the theoretical upper
// bound of RCJ result size ... for the 'worst' possible data distributions").
// Each generator stresses a different structural extreme.

// Grid returns n points on a √n × √n integer lattice spanning the domain —
// maximal regularity; every interior point has four equidistant neighbors,
// producing heavy co-circularity.
func Grid(n int) []rtree.PointEntry {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	step := Domain / float64(side)
	pts := make([]rtree.PointEntry, 0, n)
	for i := 0; len(pts) < n; i++ {
		x := float64(i%side)*step + step/2
		y := float64(i/side)*step + step/2
		pts = append(pts, rtree.PointEntry{P: geom.Point{X: x, Y: y}, ID: int64(len(pts))})
	}
	return pts
}

// Collinear returns n points on a horizontal line with the given jitter in
// y (0 for exactly collinear) — the 1D extreme where only neighboring
// points can pair.
func Collinear(n int, jitter float64, seed int64) []rtree.PointEntry {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		pts[i] = rtree.PointEntry{
			P: geom.Point{
				X: rng.Float64() * Domain,
				Y: Domain/2 + rng.NormFloat64()*jitter,
			},
			ID: int64(i),
		}
	}
	return pts
}

// OnCircle returns n points on a circle of radius Domain/3 centered in the
// domain, with angular jitter — co-circularity at global scale: the shared
// circumcircle means every pair's enclosing circle reaches deep into the
// ring's interior.
func OnCircle(n int, jitter float64, seed int64) []rtree.PointEntry {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]rtree.PointEntry, n)
	r := Domain / 3
	c := geom.Point{X: Domain / 2, Y: Domain / 2}
	for i := range pts {
		theta := 2 * math.Pi * (float64(i) + rng.Float64()*jitter) / float64(n)
		pts[i] = rtree.PointEntry{
			P:  geom.Point{X: c.X + r*math.Cos(theta), Y: c.Y + r*math.Sin(theta)},
			ID: int64(i),
		}
	}
	return pts
}

// TwoDistantClusters returns n points split between two tight clusters at
// opposite corners — the configuration behind the paper's Figure 1 remark
// that RCJ pairs need not be close: cross-cluster pairs can qualify when the
// corridor between clusters is empty.
func TwoDistantClusters(n int, sigma float64, seed int64) []rtree.PointEntry {
	rng := rand.New(rand.NewSource(seed))
	a := geom.Point{X: Domain * 0.1, Y: Domain * 0.1}
	b := geom.Point{X: Domain * 0.9, Y: Domain * 0.9}
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		c := a
		if i%2 == 1 {
			c = b
		}
		pts[i] = rtree.PointEntry{
			P: geom.Point{
				X: clamp(c.X+rng.NormFloat64()*sigma, 0, Domain),
				Y: clamp(c.Y+rng.NormFloat64()*sigma, 0, Domain),
			},
			ID: int64(i),
		}
	}
	return pts
}

// Case is one named input of a generator sweep: both sides of a join.
type Case struct {
	Name string
	P, Q []rtree.PointEntry
}

// Degenerate returns the inputs of the exactness gates, both sides n points
// apiece: lattices of two pitches, exactly and nearly collinear lines, a
// circle, two far clusters, Gaussian clusters clamped onto the domain's edge
// lines, uniform points with exact and 1e-7-apart duplicates, and uniform
// points shifted far from the origin. The duplicates follow the closed
// rule: an exact copy of a pair's endpoint is on the pair's disc (so the
// pair is not a result), and a 1e-7 twin is inside or outside wherever its
// coordinates put it — no rounding slack moves it.
func Degenerate(n int) []Case {
	shifted := func(pts []rtree.PointEntry) []rtree.PointEntry {
		for i := range pts {
			pts[i].P.X += 1e9
			pts[i].P.Y += 1e9
		}
		return pts
	}
	gp, gq := GaussianClusterPair(n, 3, Domain, 4)
	duplicated := func(seed int64) []rtree.PointEntry {
		rng := rand.New(rand.NewSource(seed))
		pts := Uniform(n, seed)
		for i := 0; i < n; i += 3 {
			pts[i].P = pts[rng.Intn(n)].P
			if i%2 == 0 {
				pts[i].P.X += 1e-7
			}
		}
		return pts
	}
	return []Case{
		{"grid", Grid(n), Grid(n + 21)},
		{"collinear0", Collinear(n, 0, 1), Collinear(n, 0, 2)},
		{"collinear5", Collinear(n, 5, 1), Collinear(n, 5, 2)},
		{"oncircle", OnCircle(n, 0, 1), OnCircle(n, 1, 2)},
		{"twoclusters", TwoDistantClusters(n, 50, 1), TwoDistantClusters(n, 50, 2)},
		{"gaussclamped", gp, gq},
		{"duplicates", duplicated(1), duplicated(2)},
		{"uniform1e9", shifted(Uniform(n, 1)), shifted(Uniform(n, 2))},
	}
}
