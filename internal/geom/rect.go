package geom

import "math"

// Rect is an axis-aligned rectangle, the minimum bounding rectangle (MBR)
// used by R-tree entries. A degenerate rectangle with Min == Max represents
// a single point.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{p.X, p.Y, p.X, p.Y}
}

// EmptyRect returns the identity element for Union: a rectangle that contains
// nothing and unions to its argument.
func EmptyRect() Rect {
	return Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// IsEmpty reports whether r is the empty rectangle (contains no points).
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Valid reports whether r is a well-formed (possibly degenerate) rectangle
// with finite coordinates.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		!math.IsInf(r.MinX, 0) && !math.IsInf(r.MinY, 0) &&
		!math.IsInf(r.MaxX, 0) && !math.IsInf(r.MaxY, 0) &&
		!math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY)
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		math.Min(r.MinX, o.MinX),
		math.Min(r.MinY, o.MinY),
		math.Max(r.MaxX, o.MaxX),
		math.Max(r.MaxY, o.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle covering r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Area returns the area of r (zero for degenerate rectangles).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns half the perimeter of r, the quantity minimized by the
// R*-tree split-axis selection.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Intersects reports whether r and o share at least one point (touching
// edges count as intersecting).
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX &&
		r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Intersection returns the overlap region of r and o, which may be empty.
func (r Rect) Intersection(o Rect) Rect {
	return Rect{
		math.Max(r.MinX, o.MinX),
		math.Max(r.MinY, o.MinY),
		math.Min(r.MaxX, o.MaxX),
		math.Min(r.MaxY, o.MaxY),
	}
}

// OverlapArea returns the area of the intersection of r and o.
func (r Rect) OverlapArea(o Rect) float64 {
	return r.Intersection(o).Area()
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// ContainsRect reports whether o lies entirely within r.
func (r Rect) ContainsRect(o Rect) bool {
	if o.IsEmpty() {
		return true
	}
	return r.MinX <= o.MinX && o.MaxX <= r.MaxX &&
		r.MinY <= o.MinY && o.MaxY <= r.MaxY
}

// MinDist2 returns the squared minimum distance from p to any point of r
// (zero when p is inside r). This is the MINDIST metric of Roussopoulos et
// al. used to order the incremental-NN heap.
func (r Rect) MinDist2(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}

// MinL1Dist returns the minimum Manhattan distance from p to any point of r
// (zero when p is inside r): MINDIST under the L1 metric.
func (r Rect) MinL1Dist(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx + dy
}

// MaxDist2 returns the squared maximum distance from p to any point of r,
// attained at the corner farthest from p.
func (r Rect) MaxDist2(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return dx*dx + dy*dy
}

// RectMinDist2 returns the squared minimum distance between any point of r
// and any point of o (zero when they intersect). Used by the distance-based
// baseline joins to prune node pairs.
func RectMinDist2(r, o Rect) float64 {
	var dx, dy float64
	if r.MaxX < o.MinX {
		dx = o.MinX - r.MaxX
	} else if o.MaxX < r.MinX {
		dx = r.MinX - o.MaxX
	}
	if r.MaxY < o.MinY {
		dy = o.MinY - r.MaxY
	} else if o.MaxY < r.MinY {
		dy = r.MinY - o.MaxY
	}
	return dx*dx + dy*dy
}

// Corners returns the four corner points of r in counterclockwise order
// starting from (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// Enlargement returns how much the area of r grows when extended to cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}
