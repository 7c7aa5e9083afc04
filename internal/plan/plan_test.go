package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func meta(count int) IndexMeta {
	return IndexMeta{
		Count:   count,
		Height:  3,
		LeafCap: 64,
		MBR:     geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		HasMBR:  true,
	}
}

func TestPlanRuleSelection(t *testing.T) {
	big, small := meta(100_000), meta(50)

	if d := Plan(Request{}, small, small); d.Algorithm != core.AlgBrute {
		t.Fatalf("50x50 join: got %s (%s), want BRUTE", d.Algorithm, d.Rule)
	}
	// An unconstrained join of sealed inputs that fit the triangulation's
	// memory budget is the Gabriel graph, priced at one read per page.
	bigPaged := big
	bigPaged.Pages = 1700
	if d := Plan(Request{}, bigPaged, big); d.Algorithm != core.AlgGabriel || d.Rule != "unbounded-gabriel" || d.Parallelism != 1 || d.EstAccesses != 1700+nodes(big) {
		t.Fatalf("100k x 100k: got %v, want unbounded-gabriel at par=1 and est_accesses=%d", d, 1700+nodes(big))
	}
	if d := Plan(Request{SelfJoin: true}, bigPaged, bigPaged); d.Rule != "unbounded-gabriel" || d.EstAccesses != 1700 {
		t.Fatalf("100k self-join: got %v, want unbounded-gabriel reading its one index once", d)
	}
	// Over the budget, over a live input, or under any predicate, OBJ.
	live := big
	live.Live = true
	huge := meta(gabrielMaxPoints/2 + 1)
	wide := big
	wide.MBR = geom.Rect{MinX: -1e307, MinY: -1e307, MaxX: 1e307, MaxY: 1e307}
	for name, c := range map[string]struct {
		req          Request
		outer, inner IndexMeta
	}{
		"over the budget":    {Request{}, huge, huge},
		"too wide":           {Request{}, wide, big},
		"too wide, self":     {Request{SelfJoin: true}, wide, wide},
		"live outer":         {Request{}, live, big},
		"live inner":         {Request{}, big, live},
		"min distance":       {Request{MinDistance: 1}, big, big},
		"max diameter":       {Request{MaxDiameter: 1}, big, big},
		"top-k":              {Request{TopK: 1}, big, big},
		"limit":              {Request{Limit: 1}, big, big},
		"weighted top-k":     {Request{TopK: 1, Weighted: true}, big, big},
		"region (half-wide)": {Request{Region: &geom.Rect{MaxX: 500, MaxY: 1000}}, big, big},
	} {
		if d := Plan(c.req, c.outer, c.inner); d.Algorithm == core.AlgGabriel {
			t.Errorf("%s: planned %v, want the R-tree", name, d)
		}
	}
	if d := Plan(Request{SelfJoin: true}, huge, huge); d.Rule != "unbounded-gabriel" {
		t.Errorf("self-join under the budget: got %v, want unbounded-gabriel", d)
	}
	if d := Plan(Request{}, live, live); d.Algorithm != core.AlgOBJ || d.Rule != "default-obj" {
		t.Fatalf("100k x 100k live: got %s (%s), want default-obj OBJ", d.Algorithm, d.Rule)
	}
	// A needle-sized Region window leaves almost no reachable outer points:
	// the per-point filter wins.
	needle := &geom.Rect{MinX: 500, MinY: 500, MaxX: 500.5, MaxY: 500.5}
	d := Plan(Request{Region: needle}, meta(1000), big)
	if d.Algorithm != core.AlgINJ {
		t.Fatalf("needle region: got %s (%s), want INJ", d.Algorithm, d.Rule)
	}
	// A wide window over a big outer input stays with OBJ but prices the
	// pruned traversal.
	half := &geom.Rect{MinX: 0, MinY: 0, MaxX: 500, MaxY: 1000}
	d = Plan(Request{Region: half}, big, big)
	if d.Algorithm != core.AlgOBJ || d.Rule != "region-pruned-obj" {
		t.Fatalf("half region: got %s (%s), want region-pruned-obj", d.Algorithm, d.Rule)
	}
	full := Plan(Request{}, live, live)
	if d.EstAccesses >= full.EstAccesses {
		t.Fatalf("pruned estimate %d not below unconstrained %d", d.EstAccesses, full.EstAccesses)
	}
}

func TestPlanPredicateOrder(t *testing.T) {
	m := meta(10_000)
	// One predicate: nothing to reorder.
	if d := Plan(Request{MaxDiameter: 5}, m, m); len(d.PredicateOrder) != 0 {
		t.Fatalf("single predicate ordered: %v", d.PredicateOrder)
	}
	// A needle region is far more selective than a generous diameter bound
	// and a token MinDistance: region must come first.
	d := Plan(Request{
		MaxDiameter: 900,
		MinDistance: 0.001,
		Region:      &geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
	}, m, m)
	if len(d.PredicateOrder) != 3 || d.PredicateOrder[0] != core.PredRegion {
		t.Fatalf("order %v, want region first", d.PredicateOrder)
	}
	// A top-k run's dynamic diameter bound outranks a loose region window.
	d = Plan(Request{
		TopK:   10,
		Region: &geom.Rect{MinX: 0, MinY: 0, MaxX: 950, MaxY: 950},
	}, m, m)
	if len(d.PredicateOrder) < 2 || d.PredicateOrder[0] != core.PredDiameter {
		t.Fatalf("order %v, want diameter (dynamic top-k bound) first", d.PredicateOrder)
	}
}

// TestPlanParallelismAndPrefetch checks that every rule plans Parallelism
// 1: a join runs on its caller's goroutine, whatever its size or shape.
// The shapes include the embedded benchmark's indexes (default 4 KiB pages:
// 42-point leaves, three levels), whose estimates are pinned too: the live
// 4k x 4k full and self joins plan at 963 accesses, the windows at <= 678.
func TestPlanParallelismAndPrefetch(t *testing.T) {
	shape := func(count int) IndexMeta {
		m := meta(count)
		m.LeafCap = 42
		return m
	}
	m4k, m20k := shape(4_000), shape(20_000)
	sealed4k := m4k
	m4k.Live = true
	window := &geom.Rect{MinX: 470, MinY: 470, MaxX: 530, MaxY: 530}
	needle := &geom.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}
	for _, c := range []struct {
		name         string
		req          Request
		outer, inner IndexMeta
		rule         string
	}{
		{"tiny", Request{}, meta(10), meta(10), "tiny-brute"},
		{"full and self 4k x 4k, live", Request{}, m4k, m4k, "default-obj"},
		{"full and self 4k x 4k, sealed", Request{}, sealed4k, sealed4k, "unbounded-gabriel"},
		{"top-10 20k x 20k", Request{TopK: 10}, m20k, m20k, "default-obj"},
		{"weighted top-10 20k x 20k", Request{TopK: 10, Weighted: true}, m20k, m20k, "default-obj"},
		{"limit 20k x 20k", Request{Limit: 100}, m20k, m20k, "default-obj"},
		{"window 20k x 20k", Request{Region: window}, m20k, m20k, "region-pruned-obj"},
		{"maxd window 20k x 20k", Request{Region: window, MaxDiameter: 100}, m20k, m20k, "region-pruned-obj"},
		{"needle window", Request{Region: needle}, meta(1000), m20k, "small-outer-inj"},
	} {
		d := Plan(c.req, c.outer, c.inner)
		if d.Parallelism != 1 || d.Rule != c.rule {
			t.Errorf("%s: planned %s, want rule=%s at par=1", c.name, d, c.rule)
		}
		switch {
		case d.Rule == "unbounded-gabriel" || d.Rule == "tiny-brute" || d.Rule == "small-outer-inj":
		case c.outer.Count == 4_000 && d.EstAccesses != 963:
			t.Errorf("%s: estimate %d, the embedded 4k joins plan at 963", c.name, d.EstAccesses)
		case c.req.Region != nil && d.EstAccesses > 678:
			t.Errorf("%s: estimate %d, the embedded windows plan at <= 678", c.name, d.EstAccesses)
		}
	}
}

func TestPlanEpochs(t *testing.T) {
	outer, inner := meta(5000), meta(5000)
	outer.Epoch = 42
	d := Plan(Request{TopK: 5, Weighted: true}, outer, inner)
	if d.Epochs != [2]uint64{42, 0} {
		t.Fatalf("epochs %v", d.Epochs)
	}
	if d.String() == "" {
		t.Fatal("empty decision string")
	}
}
