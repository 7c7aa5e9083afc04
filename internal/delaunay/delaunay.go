// Package delaunay computes the ring-constrained join as a Gabriel graph. A
// pair (p, q) is an RCJ pair iff the closed disc with diameter pq holds no
// other point of P ∪ Q, so RCJ(P, Q) is the set of bichromatic edges of the
// Gabriel graph of P ∪ Q (every edge, for a self-join). Every Gabriel edge
// is an edge of every Delaunay triangulation (Gabriel & Sokal 1969; Matula &
// Sokal 1980), and a Delaunay edge is Gabriel iff neither apex of its two
// triangles lies in its closed diametral disc: a point in the disc on one
// side of the edge would otherwise lie strictly inside that side's
// circumcircle. So one triangulation and two geom.DiscSign tests per edge
// give the join in O(n log n) expected time, reading each input point once.
//
// The triangulation is randomized incremental insertion in BRIO order
// (random rounds of doubling size, each in Hilbert order) with a visibility
// walk for point location and Lawson flips, inside a super triangle far
// enough out that no diametral disc of two inputs reaches it: the Gabriel
// edges between inputs are then the same with or without its corners.
// Every decision is exact (geom.Orient2D, geom.InCircle, geom.DiscSign), so
// the answer is a function of the float64 coordinates alone and equals the
// R-tree join's on every input, degenerate ones included. Each test first
// goes through a geom.Filter made once per join from the inputs' bounding
// box (a semi-static filter: one bound, the dynamic bound's own formula at
// the box's width, so a sign it accepts is the exact one) and falls back to
// the exact predicate; a test with a corner of the super triangle, outside
// the box, goes to the exact predicate at once.
//
// The path's three orderings, BRIO's rounds, the line order of collinear
// input and the result's (P id, Q id) order (Mesh.SortByID), are one stable
// LSD radix sort that passes only over the bytes in which the keys differ.
//
// Coincident points merge into one vertex. An exact copy of a point is on
// every disc the point spans, so a vertex holding two or more points has no
// pair with another vertex; its own points pair (with radius 0) iff there
// are exactly two of them, a P and a Q point or, in a self-join, any two.
// All-collinear input has no triangle: its Gabriel edges join consecutive
// locations in sorted order.
//
// A ranked join needs only the short edges. Mesh.Short finds the RCJ pairs
// no longer than r with no triangulation: a pair is decided by its own
// closed disc, which lies within |pq| of p, so a bucket grid of the points
// with cells of side at least r holds every point that can kill it in the
// cells around p. Its rings are the same geom.DiscSign tests, and it gives
// up (for the caller to triangulate) when clustered or coincident-heavy
// input would make the cells' work pass a fixed multiple of n.
package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Pair is one join result: P indexes ps, and Q indexes qs (ps again in a
// self-join, where the pair is unordered).
type Pair struct{ P, Q int32 }

// Mesh is the working memory of one join, reusable across joins (never
// concurrently): the triangulation and the buffers around it.
type Mesh struct {
	np, n int                // points of ps, of ps and qs together
	self  bool               // the join is ps with itself
	ps    []rtree.PointEntry // the inputs of the current join
	qs    []rtree.PointEntry //
	xy    []geom.Point       // vertex coordinates; 0-2 are the super triangle
	tv    []int32            // per corner slot: its vertex (see next)
	tn    []int32            // per corner slot: its twin across the opposite edge, or -1
	head  []int32            // per vertex: its first input point
	cnt   []int32            // per vertex: how many input points it holds
	next  []int32            // per input point: the next one at its vertex, or -1
	keys  []uint64           // insertion order: Hilbert key << 32 | input point
	tmp   []uint64           // sortByKey's scratch for keys
	stack []int32            // triangles whose edge opposite corner 0 awaits a flip test
	out   []Pair             // the result, reused by the next join
	ptmp  []Pair             // sortByKey's scratch for SortByID
	f     geom.Filter        // the predicates' static filter for the input's box
	cell  []int32            // Short's bucket grid: per cell, its first slot in at (and one entry past the last cell)
	at    []int32            // per grid slot: its input point, grouped by cell
	atXY  []geom.Point       // per grid slot: the point's coordinates
}

// ErrRange is returned for inputs whose bounding box is too wide for a
// finite super triangle (coordinates beyond about 1e306).
var ErrRange = errors.New("delaunay: input too wide for a finite super triangle")

// Fits reports whether points within r can be triangulated: Gabriel
// returns ErrRange only for input whose bounding box does not fit.
func Fits(r geom.Rect) bool {
	_, _, _, ok := superTriangle(r.MinX, r.MinY, r.MaxX, r.MaxY)
	return ok
}

// superTriangle returns the centre and reach of the super triangle around a
// bounding box, and false when its corners would overflow. The corners lie
// 16 widths from the centre, far outside every diametral disc of two inputs
// (radius at most 0.71 widths from it); the relative floor keeps them there
// after rounding at large offsets.
func superTriangle(minX, minY, maxX, maxY float64) (cx, cy, far float64, ok bool) {
	w := math.Max(maxX-minX, maxY-minY)
	far = 16 * math.Max(w, 0x1p-30*math.Max(math.Max(math.Abs(minX), math.Abs(maxX)), math.Max(math.Abs(minY), math.Abs(maxY))))
	cx, cy = minX/2+maxX/2, minY/2+maxY/2
	return cx, cy, far, !math.IsInf(math.Abs(cx)+math.Abs(cy)+3*far, 0)
}

// Bounds returns the bounding box of ps and qs (+Inf and -Inf when both
// are empty).
func Bounds(ps, qs []rtree.PointEntry) (minX, minY, maxX, maxY float64) {
	minX, minY, maxX, maxY = math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, set := range [2][]rtree.PointEntry{ps, qs} {
		for _, e := range set {
			if e.P.X < minX {
				minX = e.P.X
			}
			if e.P.X > maxX {
				maxX = e.P.X
			}
			if e.P.Y < minY {
				minY = e.P.Y
			}
			if e.P.Y > maxY {
				maxY = e.P.Y
			}
		}
	}
	return minX, minY, maxX, maxY
}

// Bytes returns the memory m's buffers hold.
func (m *Mesh) Bytes() int {
	return 16*(cap(m.xy)+cap(m.atXY)) + 4*(cap(m.tv)+cap(m.tn)+cap(m.head)+cap(m.cnt)+cap(m.next)+cap(m.stack)+cap(m.cell)+cap(m.at)) + 8*(cap(m.keys)+cap(m.tmp)+cap(m.out)+cap(m.ptmp))
}

// pollEvery is the number of insertions between two stop polls.
const pollEvery = 1024

// Gabriel returns the RCJ pairs of ps and qs (of ps with itself when self,
// qs then unused) and the number of candidate pairs it tested: Delaunay
// edges between two single-point locations that a result could use, and
// locations holding exactly two points. The result is in no particular
// order and valid until the next call on m. stop, when non-nil, is polled
// during the triangulation; its error ends the join.
func (m *Mesh) Gabriel(ps, qs []rtree.PointEntry, self bool, stop func() error) ([]Pair, int64, error) {
	if self {
		qs = nil
	}
	m.ps, m.qs, m.np, m.n, m.self = ps, qs, len(ps), len(ps)+len(qs), self
	m.out = m.out[:0]
	m.cell, m.at, m.atXY = nil, nil, nil // a triangulation holds no grid beside it
	defer func() { m.ps, m.qs = nil, nil }()
	if m.n < 2 || !self && (len(ps) == 0 || len(qs) == 0) {
		return m.out, 0, nil
	}
	if m.collinear() {
		return m.out, m.sortedLine(), nil
	}
	if err := m.triangulate(stop); err != nil {
		return nil, 0, err
	}
	return m.out, m.edges(), nil
}

// pt returns input point i's coordinates.
func (m *Mesh) pt(i int32) geom.Point {
	if int(i) < m.np {
		return m.ps[i].P
	}
	return m.qs[int(i)-m.np].P
}

// emit records the pair of input points a and b when it is one: a P and a
// Q point, or any two in a self-join.
func (m *Mesh) emit(a, b int32) int64 {
	switch {
	case m.self:
	case int(a) < m.np && int(b) >= m.np:
		b -= int32(m.np)
	case int(b) < m.np && int(a) >= m.np:
		a, b = b, a-int32(m.np)
	default:
		return 0
	}
	m.out = append(m.out, Pair{a, b})
	return 1
}

// single reports whether vertex v holds one input point, so its edges may
// be pairs.
func (m *Mesh) single(v int32) bool { return m.cnt[v] == 1 }

// coincident emits the pair inside every location of exactly two points,
// from vertex first on.
func (m *Mesh) coincident(first int) (cands int64) {
	for v := first; v < len(m.xy); v++ {
		if m.cnt[v] == 2 {
			a := m.head[v]
			cands += m.emit(a, m.next[a])
		}
	}
	return cands
}

// collinear reports whether every input point lies on one line (or one
// location).
func (m *Mesh) collinear() bool {
	a := m.pt(0)
	b, found := a, false
	for i := int32(1); int(i) < m.n; i++ {
		p := m.pt(i)
		if !found {
			if p != a {
				b, found = p, true
			}
			continue
		}
		if geom.Orient2D(a, b, p) != 0 {
			return false
		}
	}
	return true
}

// sortedLine joins collinear input: sorted lexicographically the points are
// in line order, and the Gabriel edges join consecutive locations.
func (m *Mesh) sortedLine() int64 {
	order := m.keys[:0]
	for i := 0; i < m.n; i++ {
		order = append(order, uint64(i))
	}
	m.tmp = sortByKey(order, m.tmp, func(i uint64) uint64 { return floatKey(m.pt(int32(i)).Y) })
	m.tmp = sortByKey(order, m.tmp, func(i uint64) uint64 { return floatKey(m.pt(int32(i)).X) })
	m.keys = order
	m.resetVertices()
	for k, o := range order {
		i := int32(o)
		if k == 0 || m.pt(i) != m.pt(int32(order[k-1])) {
			m.xy = append(m.xy, m.pt(i))
			m.cnt = append(m.cnt, 0)
			m.head = append(m.head, -1)
		}
		m.join(int32(len(m.xy)-1), i)
	}
	cands := m.coincident(0)
	for v := int32(1); int(v) < len(m.xy); v++ {
		if m.single(v-1) && m.single(v) {
			cands += m.emit(m.head[v-1], m.head[v])
		}
	}
	return cands
}

// resetVertices empties the vertex arrays and sizes next for the inputs.
func (m *Mesh) resetVertices() {
	m.xy, m.cnt, m.head = m.xy[:0], m.cnt[:0], m.head[:0]
	m.next = slices.Grow(m.next[:0], m.n)[:m.n]
}

// join adds input point i to vertex v.
func (m *Mesh) join(v, i int32) {
	m.next[i] = m.head[v]
	m.head[v] = i
	m.cnt[v]++
}

// triangulate builds the Delaunay triangulation of the input locations
// inside the super triangle, merging coincident points.
func (m *Mesh) triangulate(stop func() error) error {
	minX, minY, maxX, maxY := Bounds(m.ps, m.qs)
	cx, cy, far, ok := superTriangle(minX, minY, maxX, maxY)
	if !ok {
		return ErrRange
	}
	w := math.Max(maxX-minX, maxY-minY)
	m.f = geom.NewFilter(geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY})
	m.resetVertices()
	m.xy, m.cnt, m.head = slices.Grow(m.xy, m.n+3), slices.Grow(m.cnt, m.n+3), slices.Grow(m.head, m.n+3)
	m.tv, m.tn = slices.Grow(m.tv[:0], 6*m.n+3), slices.Grow(m.tn[:0], 6*m.n+3)
	m.xy = append(m.xy, geom.Point{X: cx - 2*far, Y: cy - far}, geom.Point{X: cx + 2*far, Y: cy - far}, geom.Point{X: cx, Y: cy + 2*far})
	m.cnt = append(m.cnt, 0, 0, 0)
	m.head = append(m.head, -1, -1, -1)
	m.tv = append(m.tv, 0, 1, 2)
	m.tn = append(m.tn, -1, -1, -1)

	m.order(minX, minY, w)
	t := int32(0)
	for k, key := range m.keys {
		if k%pollEvery == pollEvery-1 && stop != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		t = m.insert(int32(key), t)
	}
	return nil
}

// order fills keys with the BRIO insertion order: a fixed shuffle cut into
// rounds that double in size, each round sorted on a 2¹⁶ x 2¹⁶ Hilbert
// curve over the inputs' bounding box.
func (m *Mesh) order(minX, minY, w float64) {
	m.keys = m.keys[:0]
	scale := 0.0
	if w > 0 {
		scale = 65535 / w
	}
	for i := int32(0); int(i) < m.n; i++ {
		p := m.pt(i)
		m.keys = append(m.keys, uint64(hilbert(cell((p.X-minX)*scale), cell((p.Y-minY)*scale)))<<32|uint64(i))
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(m.keys), func(a, b int) { m.keys[a], m.keys[b] = m.keys[b], m.keys[a] })
	for end := len(m.keys); end > 0; {
		start := end / 2
		if start < 256 {
			start = 0
		}
		m.tmp = sortByKey(m.keys[start:end], m.tmp, func(k uint64) uint64 { return k })
		end = start
	}
}

// cell clamps a scaled coordinate to the curve's grid (NaN to its edge).
func cell(f float64) uint32 {
	if !(f < 65535) {
		return 65535
	}
	return uint32(f)
}

// hilbert returns the position of cell (x, y) on the 2¹⁶ x 2¹⁶ Hilbert
// curve, by the branch-free prefix-scan construction of the curve's
// per-level orientation states (C. Hamilton's state machine, evaluated for
// all 16 levels at once).
func hilbert(x, y uint32) uint32 {
	a := x ^ y
	b := 0xFFFF ^ a
	c := 0xFFFF ^ (x | y)
	d := x & (y ^ 0xFFFF)
	A := a | (b >> 1)
	B := (a >> 1) ^ a
	C := ((c >> 1) ^ (b & (d >> 1))) ^ c
	D := ((a & (c >> 1)) ^ (d >> 1)) ^ d
	for _, sh := range [3]uint32{2, 4, 8} {
		a, b, c, d = A, B, C, D
		A = (a & (a >> sh)) ^ (b & (b >> sh))
		B = (a & (b >> sh)) ^ (b & ((a ^ b) >> sh))
		C ^= (a & (c >> sh)) ^ (b & (d >> sh))
		D ^= (b & (c >> sh)) ^ ((a ^ b) & (d >> sh))
	}
	a = C ^ (C >> 1)
	b = D ^ (D >> 1)
	i0 := x ^ y
	i1 := b | (0xFFFF ^ (i0 | a))
	return interleave(i1)<<1 | interleave(i0)
}

// interleave spreads the low 16 bits of v to the even bits.
func interleave(v uint32) uint32 {
	v = (v | v<<8) & 0x00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F
	v = (v | v<<2) & 0x33333333
	return (v | v<<1) & 0x55555555
}

// The mesh is stored by corner slot: triangle t owns slots 3t, 3t+1 and
// 3t+2, tv[s] is the vertex at corner s, and tn[s] is the slot of the
// neighbouring triangle's corner across the edge opposite corner s (its
// twin), or -1 on the super triangle's outer edges. The edge opposite
// corner s runs from corner next(s) to corner prev(s), counter-clockwise.

func next(s int32) int32 {
	if s%3 == 2 {
		return s - 2
	}
	return s + 1
}

func prev(s int32) int32 {
	if s%3 == 0 {
		return s + 2
	}
	return s - 1
}

// link makes slots s and o twins (o may be -1).
func (m *Mesh) link(s, o int32) {
	m.tn[s] = o
	if o >= 0 {
		m.tn[o] = s
	}
}

// insert adds input point i, walking from triangle t, and returns a
// triangle next to it for the next walk.
func (m *Mesh) insert(i int32, t int32) int32 {
	p := m.pt(i)
	t, on := m.locate(p, t)
	for s := 3 * t; s < 3*t+3; s++ {
		if v := m.tv[s]; m.xy[v] == p {
			m.join(v, i)
			return t
		}
	}
	v := int32(len(m.xy))
	m.xy = append(m.xy, p)
	m.cnt = append(m.cnt, 0)
	m.head = append(m.head, -1)
	m.join(v, i)
	if on < 0 {
		m.split3(t, v)
	} else {
		m.split4(on, v)
	}
	return m.legalize(v)
}

// locate walks from triangle t to the triangle whose closed interior holds
// p and returns it with the slot of the corner opposite the edge p lies
// on, or -1 when p is strictly inside. The walk crosses any edge p is
// strictly beyond; in a Delaunay triangulation it cannot cycle (Edelsbrunner
// 1990), and the super triangle holds every input strictly inside.
func (m *Mesh) locate(p geom.Point, t int32) (int32, int32) {
	came := int32(-1) // the slot across the edge the walk entered t by
walk:
	for {
		on := int32(-1)
		for s := 3 * t; s < 3*t+3; s++ {
			if s == came {
				continue // p is strictly inside this edge
			}
			switch m.orient(m.tv[next(s)], m.tv[prev(s)], p) {
			case -1:
				came = m.tn[s]
				t = came / 3
				continue walk
			case 0:
				on = s
			}
		}
		return t, on
	}
}

// orient is geom.Orient2D of vertices a and b and point p (an input), through
// the join's static filter unless a or b is a corner of the super triangle,
// which lies outside the filter's box.
func (m *Mesh) orient(a, b int32, p geom.Point) int {
	if a < 3 || b < 3 {
		return geom.Orient2D(m.xy[a], m.xy[b], p)
	}
	return m.f.Orient2D(m.xy[a], m.xy[b], p)
}

// set writes triangle t's vertices.
func (m *Mesh) set(t, a, b, c int32) {
	m.tv[3*t], m.tv[3*t+1], m.tv[3*t+2] = a, b, c
}

// grow appends two triangles and returns the first one's index.
func (m *Mesh) grow() int32 {
	t := int32(len(m.tv) / 3)
	m.tv = append(m.tv, 0, 0, 0, 0, 0, 0)
	m.tn = append(m.tn, 0, 0, 0, 0, 0, 0)
	return t
}

// split3 replaces triangle t = (a, b, c) by (p, b, c), (p, c, a) and
// (p, a, b) around vertex p strictly inside it.
func (m *Mesh) split3(t, p int32) {
	a, b, c := m.tv[3*t], m.tv[3*t+1], m.tv[3*t+2]
	oa, ob, oc := m.tn[3*t], m.tn[3*t+1], m.tn[3*t+2]
	t1 := m.grow()
	t2 := t1 + 1
	m.set(t, p, b, c)
	m.set(t1, p, c, a)
	m.set(t2, p, a, b)
	m.link(3*t, oa)
	m.link(3*t1, ob)
	m.link(3*t2, oc)
	m.link(3*t+1, 3*t1+2)  // c-p
	m.link(3*t+2, 3*t2+1)  // p-b
	m.link(3*t1+1, 3*t2+2) // a-p
	m.stack = append(m.stack, t, t1, t2)
}

// split4 splits the triangle of corner slot e = c, whose opposite edge ab
// holds vertex p in its interior, and the triangle (d, b, a) across that
// edge into four around p.
func (m *Mesh) split4(e, p int32) {
	t := e / 3
	c, a, b := m.tv[e], m.tv[next(e)], m.tv[prev(e)]
	obc, oca := m.tn[next(e)], m.tn[prev(e)]
	f := m.tn[e]
	u := f / 3
	d := m.tv[f]
	oad, odb := m.tn[next(f)], m.tn[prev(f)]
	t2 := m.grow()
	t3 := t2 + 1
	m.set(t, p, c, a)
	m.set(u, p, a, d)
	m.set(t2, p, d, b)
	m.set(t3, p, b, c)
	m.link(3*t, oca)
	m.link(3*u, oad)
	m.link(3*t2, odb)
	m.link(3*t3, obc)
	m.link(3*t+1, 3*u+2)   // a-p
	m.link(3*t+2, 3*t3+1)  // p-c
	m.link(3*u+1, 3*t2+2)  // d-p
	m.link(3*t2+1, 3*t3+2) // b-p
	m.stack = append(m.stack, t, u, t2, t3)
}

// legalize flips every edge opposite the new vertex p (corner 0 of each
// stacked triangle) whose far apex lies strictly inside the triangle's
// circumcircle, until none does, and returns a triangle incident to p.
func (m *Mesh) legalize(p int32) int32 {
	last := m.stack[len(m.stack)-1]
	for len(m.stack) > 0 {
		t := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		f := m.tn[3*t]
		if f < 0 {
			continue
		}
		a, b, d := m.tv[3*t+1], m.tv[3*t+2], m.tv[f]
		if m.inCircle(p, a, b, d) <= 0 {
			continue
		}
		// t = (p, a, b) and u = (d, b, a) become (p, a, d) and (p, d, b).
		u := f / 3
		n1, n2 := m.tn[3*t+1], m.tn[3*t+2]     // across b-p and p-a
		n3, n4 := m.tn[next(f)], m.tn[prev(f)] // across a-d and d-b
		m.set(t, p, a, d)
		m.set(u, p, d, b)
		m.link(3*t, n3)
		m.link(3*t+1, 3*u+2) // d-p
		m.link(3*t+2, n2)
		m.link(3*u, n4)
		m.link(3*u+1, n1)
		m.stack = append(m.stack, t, u)
		last = t
	}
	return last
}

// inCircle is geom.InCircle of vertices a, b, c and d, through the join's
// static filter unless one is a corner of the super triangle.
func (m *Mesh) inCircle(a, b, c, d int32) int {
	if a < 3 || b < 3 || c < 3 || d < 3 {
		return geom.InCircle(m.xy[a], m.xy[b], m.xy[c], m.xy[d])
	}
	return m.f.InCircle(m.xy[a], m.xy[b], m.xy[c], m.xy[d])
}

// edges emits the Gabriel pairs of the triangulation: every edge between
// two single-point input vertices whose apexes both lie outside its closed
// diametral disc, and every location of exactly two points.
func (m *Mesh) edges() int64 {
	cands := m.coincident(3)
	for s := int32(0); int(s) < len(m.tv); s++ {
		o := m.tn[s]
		if o < s {
			continue // each shared edge once; the super triangle's outer edges are skipped
		}
		a, b := m.tv[next(s)], m.tv[prev(s)]
		if a < 3 || b < 3 || !m.single(a) || !m.single(b) {
			continue
		}
		ia, ib := m.head[a], m.head[b]
		if !m.self && (int(ia) < m.np) == (int(ib) < m.np) {
			continue
		}
		cands++
		if m.outside(a, b, m.tv[s]) && m.outside(a, b, m.tv[o]) {
			m.emit(ia, ib)
		}
	}
	return cands
}

// outside reports whether vertex x lies outside the closed disc with
// diameter ab (two inputs): geom.DiscSign, through the join's static filter
// unless x is a corner of the super triangle.
func (m *Mesh) outside(a, b, x int32) bool {
	if x < 3 {
		return geom.DiscSign(m.xy[a], m.xy[b], m.xy[x]) > 0
	}
	return m.f.DiscSign(m.xy[a], m.xy[b], m.xy[x]) > 0
}
