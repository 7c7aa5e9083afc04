package delaunay

import (
	"math/rand"
	"testing"
)

// hilbertLoop is the textbook walk down the curve's 16 levels, rotating
// the quadrant at each (the reference for hilbert).
func hilbertLoop(x, y uint32) uint32 {
	const n = 1 << 16
	var d uint32
	for s := uint32(n / 2); s > 0; s /= 2 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		if ry == 0 {
			if rx == 1 {
				x, y = n-1-x, n-1-y
			}
			x, y = y, x
		}
	}
	return d
}

// TestHilbertMatchesLoop checks the branch-free curve against the textbook
// one on the grid's corners, edges and random cells.
func TestHilbertMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		x, y := uint32(rng.Intn(1<<16)), uint32(rng.Intn(1<<16))
		if i < 16 {
			x, y = []uint32{0, 1, 65534, 65535}[i%4], []uint32{0, 1, 65534, 65535}[i/4]
		}
		if got, want := hilbert(x, y), hilbertLoop(x, y); got != want {
			t.Fatalf("hilbert(%d, %d) = %d, want %d", x, y, got, want)
		}
	}
}
