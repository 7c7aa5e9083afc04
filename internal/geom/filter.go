package geom

import "math"

// Filter is a semi-static filter for Orient2D, InCircle and DiscSign over
// the points of one box (Devillers & Pion, ALENEX 2003): each method
// evaluates its predicate's float determinant, accepts its sign against one
// bound computed when the filter is made, and otherwise calls the exact
// predicate, which tries its own dynamic bound and then rationals.
//
// Why the sign is exact. Every coordinate difference of two points of the
// box is at most its width on that axis, so its float, rounded
// monotonically, is at most the float width, and so at most d. The dynamic
// bound is a formula of float sums and products of the magnitudes of such
// differences and of their products, and float + and × of non-negative
// numbers are monotone in each operand. So the dynamic bound's own formula
// evaluated with every difference set to d is at least the dynamic bound of
// any points of the box, and a determinant past it is past theirs. A bound
// that overflows to +Inf, for d past about 1e77 (1e154 for the degree-2
// predicates), accepts nothing and defers every call.
type Filter struct {
	orient, disc, inCircle float64
}

// NewFilter returns the filter for the points of box. Its d is the larger
// of the box's float widths, maxX − minX and maxY − minY.
func NewFilter(box Rect) Filter {
	d := math.Max(box.MaxX-box.MinX, box.MaxY-box.MinY)
	dd := d * d
	l := dd + dd
	return Filter{
		orient:   orientBound(dd, dd),
		disc:     discBound(dd, dd),
		inCircle: inCircleBound(dd, dd, dd, dd, dd, dd, l, l, l),
	}
}

// Orient2D is the package's Orient2D for points of f's box.
func (f Filter) Orient2D(a, b, c Point) int {
	l := (a.X - c.X) * (b.Y - c.Y)
	r := (a.Y - c.Y) * (b.X - c.X)
	det := l - r
	switch {
	case det > f.orient:
		return 1
	case -det > f.orient:
		return -1
	}
	return Orient2D(a, b, c)
}

// DiscSign is the package's DiscSign for points of f's box.
func (f Filter) DiscSign(a, b, x Point) int {
	det := (x.X-a.X)*(x.X-b.X) + (x.Y-a.Y)*(x.Y-b.Y)
	switch {
	case det > f.disc:
		return 1
	case -det > f.disc:
		return -1
	}
	return DiscSign(a, b, x)
}

// InCircle is the package's InCircle for points of f's box.
func (f Filter) InCircle(a, b, c, d Point) int {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	al := adx*adx + ady*ady
	bl := bdx*bdx + bdy*bdy
	cl := cdx*cdx + cdy*cdy
	det := al*(bdx*cdy-cdx*bdy) + bl*(cdx*ady-adx*cdy) + cl*(adx*bdy-bdx*ady)
	switch {
	case det > f.inCircle:
		return 1
	case -det > f.inCircle:
		return -1
	}
	return InCircle(a, b, c, d)
}
