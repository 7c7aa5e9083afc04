package geom

import (
	"cmp"
	"slices"
)

// This file implements the plane-sweep intersection test mentioned in
// Section 3.2 of the paper: given a group of rectangles and a group of
// circles, find which rectangles intersect which circles without comparing
// every pair. The sweep runs over the x-axis using the circles' bounding
// boxes as a conservative first stage; survivors are confirmed with the exact
// circle–rectangle test.

// SweepPair records that rectangle Rects[RectIdx] intersects circle
// Circles[CircleIdx] in a RectCircleSweep call.
type SweepPair struct {
	RectIdx   int
	CircleIdx int
}

// RectCircleSweep returns all (rectangle, circle) index pairs whose shapes
// intersect, computed by a plane sweep along x over interval endpoints
// followed by an exact distance test. The output order is unspecified.
//
// Complexity is O((n+m)·log(n+m) + k·c) where k is the number of x-interval
// overlaps and c the constant exact test, versus O(n·m) for the naive nested
// loop; the verification step batches many circles against one node's
// entries, which is exactly the workload this accelerates.
func RectCircleSweep(rects []Rect, circles []Circle) []SweepPair {
	if len(rects) == 0 || len(circles) == 0 {
		return nil
	}

	type interval struct {
		lo, hi float64
		idx    int
	}
	rs := make([]interval, 0, len(rects))
	for i, r := range rects {
		if !r.IsEmpty() {
			rs = append(rs, interval{r.MinX, r.MaxX, i})
		}
	}
	cs := make([]interval, 0, len(circles))
	for i, c := range circles {
		b := c.BoundingRect()
		cs = append(cs, interval{b.MinX, b.MaxX, i})
	}
	byLo := func(a, b interval) int { return cmp.Compare(a.lo, b.lo) }
	slices.SortFunc(rs, byLo)
	slices.SortFunc(cs, byLo)

	var out []SweepPair
	// Classic two-list sweep: advance whichever list has the smaller next
	// left endpoint, scanning forward in the other list while x-intervals
	// overlap.
	i, j := 0, 0
	for i < len(rs) && j < len(cs) {
		if rs[i].lo <= cs[j].lo {
			r := rs[i]
			for k := j; k < len(cs) && cs[k].lo <= r.hi; k++ {
				if circleRectHit(circles[cs[k].idx], rects[r.idx]) {
					out = append(out, SweepPair{RectIdx: r.idx, CircleIdx: cs[k].idx})
				}
			}
			i++
		} else {
			c := cs[j]
			for k := i; k < len(rs) && rs[k].lo <= c.hi; k++ {
				if circleRectHit(circles[c.idx], rects[rs[k].idx]) {
					out = append(out, SweepPair{RectIdx: rs[k].idx, CircleIdx: c.idx})
				}
			}
			j++
		}
	}
	return out
}

// circleRectHit performs the exact stage: y-interval overlap first (cheap),
// then the true circle–rectangle distance test.
func circleRectHit(c Circle, r Rect) bool {
	b := c.BoundingRect()
	if b.MinY > r.MaxY || r.MinY > b.MaxY {
		return false
	}
	return c.IntersectsRect(r)
}
