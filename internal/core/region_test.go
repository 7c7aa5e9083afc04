package core

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// TestDerivesRegionBound pins when the executor derives a window's own
// diameter bound: a Euclidean Region query with MaxDiameter zero, and no
// other. A positive bound is the caller's and +Inf asks for none.
func TestDerivesRegionBound(t *testing.T) {
	w := &geom.Rect{MaxX: 100, MaxY: 100}
	for _, c := range []struct {
		name string
		opts Options
		want bool
	}{
		{"window", Options{Region: w}, true},
		{"ranked window", Options{Region: w, TopK: 5, Algorithm: AlgINJ}, true},
		{"no window", Options{}, false},
		{"window with a bound", Options{Region: w, MaxDiameter: 30}, false},
		{"window with no bound", Options{Region: w, MaxDiameter: math.Inf(1)}, false},
		{"L1 window", Options{Region: w, Metric: MetricL1}, false},
	} {
		if got := c.opts.derivesRegionBound(); got != c.want {
			t.Errorf("%s: derivesRegionBound = %v, want %v", c.name, got, c.want)
		}
	}
}
