package delaunay

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/rtree"
)

// sortByKey sorts s stably by key, an unsigned integer, and returns tmp,
// its scratch, grown to len(s) for the next call. It is an LSD radix sort
// over only the bytes in which the keys, offset by the least of them,
// differ: ids 0..3999 take two passes, any uint64 at most eight. key is
// called a few times an element, so it must be cheap and the same each
// time.
func sortByKey[E any](s, tmp []E, key func(E) uint64) []E {
	if len(s) < 2 {
		return tmp
	}
	lo, hi := key(s[0]), key(s[0])
	for _, e := range s[1:] {
		k := key(e)
		lo, hi = min(lo, k), max(hi, k)
	}
	width := (bits.Len64(hi-lo) + 7) / 8
	var count [8][256]uint32
	for _, e := range s {
		k := key(e) - lo
		for b := range width {
			count[b][byte(k>>(8*b))]++
		}
	}
	tmp = slices.Grow(tmp[:0], len(s))[:len(s)]
	src, dst := s, tmp
	for b := range width {
		c := &count[b]
		shift := 8 * b
		if int(c[byte((key(s[0])-lo)>>shift)]) == len(s) {
			continue // every key has this byte
		}
		sum := uint32(0)
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, e := range src {
			d := byte((key(e) - lo) >> shift)
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return tmp
}

// idKey maps an int64 id to a uint64 key of the same order.
func idKey(id int64) uint64 { return uint64(id) ^ 1<<63 }

// floatKey maps a float64 that is not NaN to a uint64 key of the same
// order, −0 and +0 to one key.
func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// SortByID sorts pairs, of ps and qs as Gabriel returns them (qs is ps in
// a self-join), by (P id, Q id): stably by Q id, then by P id. Pairs of
// equal ids keep their order.
func (m *Mesh) SortByID(pairs []Pair, ps, qs []rtree.PointEntry) {
	m.ptmp = sortByKey(pairs, m.ptmp, func(pr Pair) uint64 { return idKey(qs[pr.Q].ID) })
	m.ptmp = sortByKey(pairs, m.ptmp, func(pr Pair) uint64 { return idKey(ps[pr.P].ID) })
}
