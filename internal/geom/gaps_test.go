package geom

import (
	"math"
	"testing"
)

func TestPointEqual(t *testing.T) {
	a := Point{1, 2}
	if !a.Equal(Point{1, 2}) || a.Equal(Point{1, 2.0001}) {
		t.Fatal("Equal is wrong")
	}
}

func TestRectConstructorsAndValidity(t *testing.T) {
	p := Point{3, 4}
	r := RectFromPoint(p)
	if r != (Rect{3, 4, 3, 4}) || !r.Valid() || r.IsEmpty() {
		t.Fatalf("RectFromPoint: %+v", r)
	}
	if got := r.ExtendPoint(Point{5, 2}); got != (Rect{3, 2, 5, 4}) {
		t.Fatalf("ExtendPoint: %+v", got)
	}
	if EmptyRect().Valid() {
		t.Fatal("empty rect must be invalid")
	}
	if (Rect{MinX: math.NaN(), MaxX: 1, MaxY: 1}).Valid() {
		t.Fatal("NaN rect must be invalid")
	}
	if (Rect{0, 0, math.Inf(1), 1}).Valid() {
		t.Fatal("infinite rect must be invalid")
	}
}

func TestRectMinDistAndEnlargement(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if got := r.MinL1Dist(Point{5, 6}); got != 7 {
		t.Fatalf("MinL1Dist %g, want 7", got)
	}
	if got := r.MinL1Dist(Point{1, -3}); got != 3 {
		t.Fatalf("MinL1Dist below the rect %g, want 3", got)
	}
	if got := r.MinL1Dist(Point{1, 2}); got != 0 {
		t.Fatalf("MinL1Dist on the rect %g, want 0", got)
	}
	if got := r.Enlargement(Rect{0, 0, 4, 2}); got != 4 {
		t.Fatalf("Enlargement %g, want 4", got)
	}
	if got := r.Enlargement(Rect{1, 1, 2, 2}); got != 0 {
		t.Fatalf("contained enlargement %g, want 0", got)
	}
}

func TestPsiMinusContainsRectHelper(t *testing.T) {
	q := Point{0, 0}
	p := Point{10, 0}
	// Rect entirely beyond L(q,p) (x=10).
	if !onePruner(q, p, false).PrunesRect(Rect{11, -5, 20, 5}) {
		t.Fatal("rect beyond the line must be contained")
	}
	if onePruner(q, p, false).PrunesRect(Rect{5, -5, 20, 5}) {
		t.Fatal("straddling rect must not be contained")
	}
}

func TestCircleDiameter(t *testing.T) {
	c := Circle{Radius: 2.5}
	if c.Diameter() != 5 {
		t.Fatalf("Diameter %g", c.Diameter())
	}
}

func TestStrictPrunerSetAdd(t *testing.T) {
	var s PrunerSet
	q := Point{0, 0}
	s.AddStrict(q, Point{10, 0})
	if s.PrunesPoint(Point{10, 3}) {
		t.Fatal("strict set must exclude the boundary")
	}
	if !s.PrunesPoint(Point{11, 0}) {
		t.Fatal("strict set must include the open side")
	}
}
