package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// wideFilterItem and wideFilterHeap are the filter heap as it was before
// it sifted 16-byte keys: whole 72-byte items in one slice, same less rule,
// same sift procedures. Kept as the reference of TestFilterHeapPopOrder.
type wideFilterItem struct {
	dist2   float64
	isPoint bool
	page    storage.PageID
	rect    geom.Rect
	point   rtree.PointEntry
}

type wideFilterHeap []wideFilterItem

func (h wideFilterHeap) less(i, j int) bool {
	if h[i].dist2 != h[j].dist2 {
		return h[i].dist2 < h[j].dist2
	}
	return h[i].isPoint && !h[j].isPoint
}

func (h *wideFilterHeap) push(it wideFilterItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *wideFilterHeap) pop() wideFilterItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// TestFilterHeapPopOrder checks that the key heap pops exactly what the
// wide heap popped, payload included, on random push/pop interleavings
// whose keys tie heavily (a handful of distinct distances) and mix points
// and subtrees — the ties are where a different sift would show — and then
// on the drain. The traversal's pop order decides its pruner sets, so every
// count of TestFilterCountsPinned rests on this.
func TestFilterHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var h filterHeap
	for trial := 0; trial < 200; trial++ {
		var wide wideFilterHeap
		h.reset()
		pops := 0
		popBoth := func() {
			pops++
			want, k := wide.pop(), h.pop()
			id := int64(0)
			if k.isPoint {
				id = h.points[k.idx].point.ID
			} else {
				id = int64(h.nodes[k.idx].page)
			}
			// Exactly one of want's point id and page is set.
			if k.dist2 != want.dist2 || k.isPoint != want.isPoint || id != want.point.ID+int64(want.page) {
				t.Fatalf("trial %d pop %d: got (%g, point %v, entry %d), want (%g, point %v, entry %d)",
					trial, pops, k.dist2, k.isPoint, id, want.dist2, want.isPoint, want.point.ID+int64(want.page))
			}
		}
		distinct := 1 + rng.Intn(6)
		for seq := int64(1); seq <= 300; seq++ {
			for len(wide) > 0 && rng.Intn(3) == 0 {
				popBoth()
			}
			dist2 := float64(rng.Intn(distinct))
			if rng.Intn(2) == 0 {
				p := rtree.PointEntry{P: geom.Point{X: dist2}, ID: seq}
				wide.push(wideFilterItem{dist2: dist2, isPoint: true, point: p})
				h.pushPoint(dist2, p, liveSpan{})
			} else {
				wide.push(wideFilterItem{dist2: dist2, page: storage.PageID(seq), rect: geom.EmptyRect()})
				h.pushNode(dist2, storage.PageID(seq), geom.EmptyRect(), liveSpan{})
			}
		}
		for len(wide) > 0 {
			popBoth()
		}
		if len(h.keys) != 0 {
			t.Fatalf("trial %d: %d keys left after the wide heap drained", trial, len(h.keys))
		}
	}
}
