package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genPoint maps arbitrary float pairs into the domain.
func genPoint(a, b float64) Point {
	return Point{X: squash(a), Y: squash(b)}
}

func squash(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 10000)
}

func TestDistBasics(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 3, Y: 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("dist = %g, want 5", d)
	}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Fatalf("dist2 = %g, want 25", d2)
	}
	if m := a.Mid(b); m != (Point{X: 1.5, Y: 2}) {
		t.Fatalf("mid = %+v", m)
	}
	if d := a.L1Dist(b); d != 7 {
		t.Fatalf("L1 dist = %g, want 7", d)
	}
}

func TestQuickDistSymmetricAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := genPoint(ax, ay), genPoint(bx, by), genPoint(cx, cy)
		if a.Dist(b) != b.Dist(a) {
			return false
		}
		// Triangle inequality with a float slack.
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectOps(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	if r.Area() != 50 {
		t.Fatalf("area %g", r.Area())
	}
	if r.Margin() != 15 {
		t.Fatalf("margin %g", r.Margin())
	}
	if r.Center() != (Point{5, 2.5}) {
		t.Fatalf("center %+v", r.Center())
	}
	o := Rect{5, 2, 20, 20}
	if !r.Intersects(o) {
		t.Fatal("should intersect")
	}
	if got := r.OverlapArea(o); got != 15 {
		t.Fatalf("overlap %g, want 15", got)
	}
	if u := r.Union(o); u != (Rect{0, 0, 20, 20}) {
		t.Fatalf("union %+v", u)
	}
	if r.ContainsRect(o) {
		t.Fatal("containment is wrong")
	}
	if !(Rect{-1, -1, 30, 30}).ContainsRect(o) {
		t.Fatal("containment missed")
	}
	if e := EmptyRect(); !e.IsEmpty() || e.Area() != 0 {
		t.Fatal("empty rect misbehaves")
	}
	if e := EmptyRect().Union(r); e != r {
		t.Fatal("empty union identity broken")
	}
}

func TestQuickUnionContains(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		r := rectFrom(a1, a2, a3, a4)
		o := rectFrom(b1, b2, b3, b4)
		u := r.Union(o)
		return u.ContainsRect(r) && u.ContainsRect(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func rectFrom(a, b, c, d float64) Rect {
	x1, x2 := squash(a), squash(b)
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	y1, y2 := squash(c), squash(d)
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{x1, y1, x2, y2}
}

func TestQuickMinDistZeroInside(t *testing.T) {
	f := func(a1, a2, a3, a4, px, py float64) bool {
		r := rectFrom(a1, a2, a3, a4)
		p := genPoint(px, py)
		d2 := r.MinDist2(p)
		if r.ContainsPoint(p) {
			return d2 == 0
		}
		// Outside: strictly positive and attained by some corner or edge —
		// at least never more than the nearest corner distance.
		corners := r.Corners()
		minCorner := math.Inf(1)
		for _, c := range corners {
			if d := p.Dist2(c); d < minCorner {
				minCorner = d
			}
		}
		return d2 > 0 && d2 <= minCorner+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxDistDominatesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(a1, a2, a3, a4, px, py float64) bool {
		r := rectFrom(a1, a2, a3, a4)
		p := genPoint(px, py)
		maxD2 := r.MaxDist2(p)
		// Sample interior points; none may exceed MaxDist2.
		for i := 0; i < 16; i++ {
			s := Point{
				X: r.MinX + rng.Float64()*(r.MaxX-r.MinX),
				Y: r.MinY + rng.Float64()*(r.MaxY-r.MinY),
			}
			if p.Dist2(s) > maxD2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEnclosingCircle(t *testing.T) {
	p := Point{0, 0}
	q := Point{6, 8}
	c := EnclosingCircle(p, q)
	if c.Radius != 5 {
		t.Fatalf("radius %g, want 5", c.Radius)
	}
	if c.Center != (Point{3, 4}) {
		t.Fatalf("center %+v", c.Center)
	}
	// Both defining points lie on the closed circle.
	if !c.Covers(p) || !c.Covers(q) {
		t.Fatal("defining points not covered")
	}
	// But not strictly inside.
	if c.StrictlyInside(p) || c.StrictlyInside(q) {
		t.Fatal("defining points must not be strictly inside")
	}
	if !c.Covers(c.Center) {
		t.Fatal("center not covered")
	}
}

func TestQuickEnclosingCircleCoversEndpoints(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := genPoint(ax, ay), genPoint(bx, by)
		c := EnclosingCircle(p, q)
		return c.Covers(p) && c.Covers(q) && !c.StrictlyInside(p) && !c.StrictlyInside(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCircleRectRelations(t *testing.T) {
	c := Circle{Center: Point{5, 5}, Radius: 3}
	if !c.IntersectsRect(Rect{4, 4, 6, 6}) {
		t.Fatal("interior rect should intersect")
	}
	if c.IntersectsRect(Rect{20, 20, 30, 30}) {
		t.Fatal("distant rect should not intersect")
	}
	if !c.ContainsRect(Rect{4, 4, 6, 6}) {
		t.Fatal("small central rect should be contained")
	}
	if c.ContainsRect(Rect{0, 0, 10, 10}) {
		t.Fatal("big rect cannot be contained")
	}
	// A rect with one side crossing the disk: left face at x=4.5 from y=4
	// to y=6 is inside, right face at x=30 is far outside.
	if !c.ContainsFace(Rect{4.5, 4, 30, 6}) {
		t.Fatal("left face lies inside the circle")
	}
	if c.ContainsFace(Rect{9, 9, 30, 30}) {
		t.Fatal("no face is inside")
	}
}

func TestQuickContainsRectImpliesIntersects(t *testing.T) {
	f := func(cx, cy, cr, a1, a2, a3, a4 float64) bool {
		c := Circle{Center: genPoint(cx, cy), Radius: squash(cr) / 10}
		r := rectFrom(a1, a2, a3, a4)
		if c.ContainsRect(r) && !c.IntersectsRect(r) {
			return false
		}
		if c.ContainsRect(r) && !c.ContainsFace(r) {
			return false // full containment implies every face inside
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLemma1Pruning verifies the geometric heart of the paper: a point p'
// in Ψ−(q, p) always yields an enclosing circle covering p, so the pruned
// pair is genuinely invalid.
func TestLemma1Pruning(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		q := Point{rng.Float64() * 100, rng.Float64() * 100}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		pp := Point{rng.Float64() * 100, rng.Float64() * 100}
		if p == q {
			continue
		}
		if NewPruner(q, p).PrunesPoint(pp) {
			c := EnclosingCircle(pp, q)
			if !c.Covers(p) {
				t.Fatalf("Lemma 1 violated: q=%+v p=%+v p'=%+v: p not covered by circle of <p',q>", q, p, pp)
			}
		}
	}
}

// TestLemma2Maximality verifies the converse direction: a point p' strictly
// in Ψ+(q, p) yields an enclosing circle NOT strictly containing p, so the
// pruning region cannot be enlarged (Lemma 2).
func TestLemma2Maximality(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for i := 0; i < 20000; i++ {
		q := Point{rng.Float64() * 100, rng.Float64() * 100}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		pp := Point{rng.Float64() * 100, rng.Float64() * 100}
		if p == q {
			continue
		}
		if !NewPruner(q, p).PrunesPoint(pp) {
			c := EnclosingCircle(pp, q)
			if c.StrictlyInside(p) {
				t.Fatalf("Lemma 2 violated: p strictly inside circle of unpruned <p',q>: q=%+v p=%+v p'=%+v", q, p, pp)
			}
		}
	}
}

// TestLemma3RectPruning verifies the MBR lift: if PrunesRect holds, every
// point of the rectangle is individually pruned.
func TestLemma3RectPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 5000; i++ {
		q := Point{rng.Float64() * 100, rng.Float64() * 100}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		r := rectFrom(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		pr := NewPruner(q, p)
		if pr.PrunesRect(r) {
			for _, corner := range r.Corners() {
				if !pr.PrunesPoint(corner) {
					t.Fatalf("Lemma 3 violated at corner %+v", corner)
				}
			}
			// And a few interior samples.
			for k := 0; k < 8; k++ {
				s := Point{
					X: r.MinX + rng.Float64()*(r.MaxX-r.MinX),
					Y: r.MinY + rng.Float64()*(r.MaxY-r.MinY),
				}
				if !pr.PrunesPoint(s) {
					t.Fatalf("Lemma 3 violated at interior %+v", s)
				}
			}
		}
	}
}

func TestStrictPrunerBoundary(t *testing.T) {
	q := Point{0, 0}
	p := Point{4, 0}
	closed := NewPruner(q, p)
	strict := NewStrictPruner(q, p)
	onLine := Point{4, 7} // on L(q,p): x = 4
	if !closed.PrunesPoint(onLine) {
		t.Fatal("closed pruner must include the boundary")
	}
	if strict.PrunesPoint(onLine) {
		t.Fatal("strict pruner must exclude the boundary")
	}
	if !strict.PrunesPoint(Point{4.1, 7}) {
		t.Fatal("strict pruner must include the open side")
	}
	// p itself is on the line.
	if strict.PrunesPoint(p) {
		t.Fatal("strict pruner must not prune its own boundary point")
	}
}

func TestPrunerSet(t *testing.T) {
	var s PrunerSet
	q := Point{0, 0}
	s.Add(q, Point{10, 0})
	s.Add(q, Point{0, 10})
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	if !s.PrunesPoint(Point{20, 0}) {
		t.Fatal("beyond the first pruner")
	}
	if !s.PrunesPoint(Point{0, 20}) {
		t.Fatal("beyond the second pruner")
	}
	if s.PrunesPoint(Point{1, 1}) {
		t.Fatal("near the query, must survive")
	}
	if !s.PrunesRect(Rect{11, -5, 20, 5}) {
		t.Fatal("rect wholly beyond first pruner")
	}
	if s.PrunesRect(Rect{5, 5, 15, 15}) {
		t.Fatal("straddling rect is not contained in a single region")
	}
	s.Reset()
	if s.Len() != 0 || s.PrunesPoint(Point{100, 100}) {
		t.Fatal("reset failed")
	}
}

func TestRectMinDist2(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{5, 6, 7, 8}
	want := 3.0*3.0 + 4.0*4.0
	if got := RectMinDist2(a, b); got != want {
		t.Fatalf("RectMinDist2 = %g, want %g", got, want)
	}
	if got := RectMinDist2(a, Rect{1, 1, 9, 9}); got != 0 {
		t.Fatalf("intersecting rects: %g", got)
	}
}

func TestRectCircleSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		nr, nc := rng.Intn(30), rng.Intn(30)
		rects := make([]Rect, nr)
		for i := range rects {
			rects[i] = rectFrom(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
		}
		circles := make([]Circle, nc)
		for i := range circles {
			circles[i] = Circle{
				Center: Point{rng.Float64() * 1000, rng.Float64() * 1000},
				Radius: rng.Float64() * 200,
			}
		}
		got := map[[2]int]bool{}
		for _, hit := range RectCircleSweep(rects, circles) {
			got[[2]int{hit.RectIdx, hit.CircleIdx}] = true
		}
		for i, r := range rects {
			for jj, c := range circles {
				want := c.IntersectsRect(r)
				if got[[2]int{i, jj}] != want {
					t.Fatalf("trial %d: sweep mismatch at rect %d circle %d: got %v want %v", trial, i, jj, got[[2]int{i, jj}], want)
				}
			}
		}
	}
}

func TestL1Circle(t *testing.T) {
	p := Point{0, 0}
	q := Point{4, 2}
	c := L1EnclosingCircle(p, q)
	if c.Radius != 3 {
		t.Fatalf("L1 radius %g, want 3", c.Radius)
	}
	if !c.Covers(p) || !c.Covers(q) {
		t.Fatal("L1 ball must cover both endpoints")
	}
	if !c.Covers(c.Center) {
		t.Fatal("L1 ball must cover its center")
	}
	if c.Covers(Point{10, 10}) {
		t.Fatal("far point covered")
	}
	if !c.IntersectsRect(Rect{2, 1, 3, 2}) {
		t.Fatal("interior rect should intersect L1 ball")
	}
	if c.IntersectsRect(Rect{50, 50, 60, 60}) {
		t.Fatal("distant rect should not intersect L1 ball")
	}
}
