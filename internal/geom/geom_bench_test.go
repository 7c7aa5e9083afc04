package geom

import (
	"math/rand"
	"testing"
)

func benchPoints(n int) []Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
	}
	return pts
}

func BenchmarkDist2(b *testing.B) {
	pts := benchPoints(1024)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += pts[i%1024].Dist2(pts[(i+7)%1024])
	}
	_ = sink
}

func BenchmarkEnclosingCircle(b *testing.B) {
	pts := benchPoints(1024)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		c := EnclosingCircle(pts[i%1024], pts[(i+7)%1024])
		sink += c.Radius
	}
	_ = sink
}

func BenchmarkCircleCovers(b *testing.B) {
	pts := benchPoints(1024)
	c := Circle{Center: Point{5000, 5000}, Radius: 3000}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if c.Covers(pts[i%1024]) {
			n++
		}
	}
	_ = n
}

func BenchmarkPrunerPrunesPoint(b *testing.B) {
	pts := benchPoints(1024)
	pr := onePruner(Point{5000, 5000}, Point{6000, 6000}, false)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if pr.PrunesPoint(pts[i%1024]) {
			n++
		}
	}
	_ = n
}

func BenchmarkPrunerSetTwenty(b *testing.B) {
	// A pruner set of the size the filter typically accumulates.
	pts := benchPoints(1024)
	var s PrunerSet
	q := Point{5000, 5000}
	for i := 0; i < 20; i++ {
		s.Add(q, pts[i])
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if s.PrunesPoint(pts[i%1024]) {
			n++
		}
	}
	_ = n
}
