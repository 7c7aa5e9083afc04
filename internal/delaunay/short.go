package delaunay

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// shortWork bounds Short's in-cell work: point visits per input point,
// past which it gives up. Uniform input visits about 4.5 a point in a
// two-set join and 9 in a self-join (the ~9 cells around each P point, one
// point a cell); tightly clustered or coincident-heavy input piles many
// points into a cell and passes it.
const shortWork = 32

// Short returns the RCJ pairs of ps and qs (of ps with itself when self,
// qs then unused) whose distance geom.Point.Dist is at most r, and the
// number of candidate pairs it tested: those within r. It needs no
// triangulation. ok is false, with no pairs, when the work would pass
// shortWork visits per input point, or the input is too wide to
// triangulate (Fits): the caller then answers from Gabriel. The result is
// in no particular order and valid until the next call on m. stop, when
// non-nil, is polled every 1024 points; its error ends the call.
//
// The points are counting-sorted into a grid of square cells of side
// max(r, √(area/n), width/n), where area and width are those of the
// inputs' bounding box (the last term keeps a thin box to at most 3n + 1
// cells). For each P point p (each point, in a self-join) Short scans the
// cells within reach of p on both axes, and keeps a pair (p, q) of those
// cells with Dist(p, q) ≤ r iff no third point x of the same cells has
// geom.DiscSign(p, q, x) ≤ 0. Those cells hold every point of the pair's
// closed disc: by Thales the angle pxq at a point x of the disc is at
// least 90°, so |px| ≤ |pq|, and |x−p| on either axis is at most |pq|.
// Every pair and every ring test is the same exact predicate as Gabriel's
// and the R-tree join's, so the pairs are exactly the RCJ pairs within r.
// Coincident points need no case of their own: a copy of an endpoint has
// DiscSign 0, so a location of exactly two points pairs at radius 0 and a
// third copy kills that pair and every pair of the location's points.
//
// Rounding. The reach is r·(1 + 2⁻⁴⁰) + 2⁻¹⁰²², in float64. Dist rounds
// each coordinate difference (relative error ≤ 2⁻⁵³) and then math.Hypot
// (a handful of roundings, relative error < 2⁻⁵⁰ together), so a pair with
// Dist ≤ r has exact |pq| < r·(1 + 2⁻⁴⁹), up to an absolute error near
// 2⁻¹⁰⁷⁴ where the differences are subnormal; the reach exceeds both. The
// cell of a coordinate v is ⌊(v − minX)·(1/side)⌋, clamped to the grid,
// and each step of it is monotone in v (rounding to nearest, multiplying
// by a positive float, truncation, clamping). So for a point x with
// exact |x−p| ≤ reach on an axis, fl(p − reach) ≤ x ≤ fl(p + reach) — a
// float lies between the roundings of two reals that bound it — and the
// cell of x lies between the cells of the two rounded bounds, which are
// the cells Short scans.
func (m *Mesh) Short(ps, qs []rtree.PointEntry, self bool, r float64, stop func() error) (pairs []Pair, cands int64, ok bool, err error) {
	if self {
		qs = nil
	}
	m.ps, m.qs, m.np, m.n, m.self = ps, qs, len(ps), len(ps)+len(qs), self
	m.out = m.out[:0]
	defer func() { m.ps, m.qs = nil, nil }()
	if m.n < 2 || !self && (len(ps) == 0 || len(qs) == 0) {
		return m.out, 0, true, nil
	}
	minX, minY, maxX, maxY := Bounds(ps, qs)
	if _, _, _, fits := superTriangle(minX, minY, maxX, maxY); !fits || !(r >= 0) || math.IsInf(r, 1) {
		return nil, 0, false, nil
	}
	m.f = geom.NewFilter(geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY})
	w, h := maxX-minX, maxY-minY
	side := math.Max(r, math.Max(math.Sqrt(w*h/float64(m.n)), math.Max(w, h)/float64(m.n)))
	if !(side > 0) {
		side = 1 // one location, r = 0
	}
	g := grid{minX: minX, minY: minY, inv: 1 / side, nx: int(w/side) + 1, ny: int(h/side) + 1}
	m.bucket(g)
	reach := r*(1+0x1p-40) + 0x1p-1022
	limit, work := shortWork*int64(m.n), int64(0)
	for s, a := range m.at {
		if s%pollEvery == pollEvery-1 && stop != nil {
			if err := stop(); err != nil {
				return nil, 0, false, err
			}
		}
		if !self && int(a) >= m.np {
			continue
		}
		p := m.atXY[s]
		b := g.block(p, reach)
		for y := b.y0; y <= b.y1; y++ {
			for t := m.cell[y*g.nx+b.x0]; t < m.cell[y*g.nx+b.x1+1]; t++ {
				work++
				o := m.at[t]
				if self && o <= a || !self && int(o) < m.np {
					continue
				}
				q := m.atXY[t]
				// Dist is at least either axis's difference (Hypot's
				// error is far below the reach's widening), so a point
				// beyond the reach on an axis is beyond r.
				if dx, dy := q.X-p.X, q.Y-p.Y; dx > reach || -dx > reach || dy > reach || -dy > reach || p.Dist(q) > r {
					continue
				}
				cands++
				if m.emptyDisc(g, b, a, o, p, q, &work) {
					m.emit(a, o)
				}
				if work > limit {
					return nil, cands, false, nil
				}
			}
		}
		if work > limit {
			return nil, cands, false, nil
		}
	}
	return m.out, cands, true, nil
}

// grid is Short's bucket grid: nx x ny square cells of side 1/inv from
// (minX, minY), numbered row by row.
type grid struct {
	minX, minY, inv float64
	nx, ny          int
}

// span is the range of cells a point's reach covers: x0..x1 on each row
// y0..y1.
type span struct{ x0, x1, y0, y1 int }

// axis returns the cell of coordinate v on an axis of n cells from lo:
// ⌊(v − lo)·inv⌋ clamped to [0, n−1], monotone in v.
func (g grid) axis(v, lo float64, n int) int {
	f := (v - lo) * g.inv
	switch {
	case !(f > 0):
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

// block returns the cells within reach of p on both axes.
func (g grid) block(p geom.Point, reach float64) span {
	return span{
		x0: g.axis(p.X-reach, g.minX, g.nx), x1: g.axis(p.X+reach, g.minX, g.nx),
		y0: g.axis(p.Y-reach, g.minY, g.ny), y1: g.axis(p.Y+reach, g.minY, g.ny),
	}
}

// bucket counting-sorts the input points into g's cells: afterwards the
// points of cell c are at[cell[c]:cell[c+1]], in input order, with their
// coordinates beside them in atXY.
func (m *Mesh) bucket(g grid) {
	cells := g.nx * g.ny
	m.cell = slices.Grow(m.cell[:0], cells+1)[:cells+1]
	clear(m.cell)
	m.next = slices.Grow(m.next[:0], m.n)[:m.n] // per input point: its cell
	for i := int32(0); int(i) < m.n; i++ {
		p := m.pt(i)
		c := int32(g.axis(p.Y, g.minY, g.ny)*g.nx + g.axis(p.X, g.minX, g.nx))
		m.next[i] = c
		m.cell[c]++
	}
	for c := 1; c <= cells; c++ {
		m.cell[c] += m.cell[c-1]
	}
	m.at = slices.Grow(m.at[:0], m.n)[:m.n]
	m.atXY = slices.Grow(m.atXY[:0], m.n)[:m.n]
	for i := int32(m.n - 1); i >= 0; i-- {
		c := m.next[i]
		m.cell[c]--
		m.at[m.cell[c]] = i
		m.atXY[m.cell[c]] = m.pt(i)
	}
}

// emptyDisc reports whether no input point of the cells in b other than a
// and o lies in the closed disc with diameter pq (their coordinates),
// adding the points it looks at to work.
func (m *Mesh) emptyDisc(g grid, b span, a, o int32, p, q geom.Point, work *int64) bool {
	for y := b.y0; y <= b.y1; y++ {
		lo, hi := m.cell[y*g.nx+b.x0], m.cell[y*g.nx+b.x1+1]
		*work += int64(hi - lo)
		for t := lo; t < hi; t++ {
			if x := m.at[t]; x != a && x != o && m.f.DiscSign(p, q, m.atXY[t]) <= 0 {
				return false
			}
		}
	}
	return true
}
