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

	if d := Plan(Request{}, small, small, Observed{}); d.Algorithm != core.AlgBrute {
		t.Fatalf("50x50 join: got %s (%s), want BRUTE", d.Algorithm, d.Rule)
	}
	if d := Plan(Request{}, big, big, Observed{}); d.Algorithm != core.AlgOBJ || d.Rule != "default-obj" {
		t.Fatalf("100k x 100k: got %s (%s), want default-obj OBJ", d.Algorithm, d.Rule)
	}
	// A needle-sized Region window leaves almost no reachable outer points:
	// the per-point filter wins.
	needle := &geom.Rect{MinX: 500, MinY: 500, MaxX: 500.5, MaxY: 500.5}
	d := Plan(Request{Region: needle}, meta(1000), big, Observed{})
	if d.Algorithm != core.AlgINJ {
		t.Fatalf("needle region: got %s (%s), want INJ", d.Algorithm, d.Rule)
	}
	// A wide window over a big outer input stays with OBJ but prices the
	// pruned traversal.
	half := &geom.Rect{MinX: 0, MinY: 0, MaxX: 500, MaxY: 1000}
	d = Plan(Request{Region: half}, big, big, Observed{})
	if d.Algorithm != core.AlgOBJ || d.Rule != "region-pruned-obj" {
		t.Fatalf("half region: got %s (%s), want region-pruned-obj", d.Algorithm, d.Rule)
	}
	full := Plan(Request{}, big, big, Observed{})
	if d.EstAccesses >= full.EstAccesses {
		t.Fatalf("pruned estimate %d not below unconstrained %d", d.EstAccesses, full.EstAccesses)
	}
}

func TestPlanPredicateOrder(t *testing.T) {
	m := meta(10_000)
	// One predicate: nothing to reorder.
	if d := Plan(Request{MaxDiameter: 5}, m, m, Observed{}); len(d.PredicateOrder) != 0 {
		t.Fatalf("single predicate ordered: %v", d.PredicateOrder)
	}
	// A needle region is far more selective than a generous diameter bound
	// and a token MinDistance: region must come first.
	d := Plan(Request{
		MaxDiameter: 900,
		MinDistance: 0.001,
		Region:      &geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
	}, m, m, Observed{})
	if len(d.PredicateOrder) != 3 || d.PredicateOrder[0] != core.PredRegion {
		t.Fatalf("order %v, want region first", d.PredicateOrder)
	}
	// A top-k run's dynamic diameter bound outranks a loose region window.
	d = Plan(Request{
		TopK:   10,
		Region: &geom.Rect{MinX: 0, MinY: 0, MaxX: 950, MaxY: 950},
	}, m, m, Observed{})
	if len(d.PredicateOrder) < 2 || d.PredicateOrder[0] != core.PredDiameter {
		t.Fatalf("order %v, want diameter (dynamic top-k bound) first", d.PredicateOrder)
	}
}

func TestPlanParallelismAndPrefetch(t *testing.T) {
	m := meta(100_000)
	// Caller-fixed parallelism is echoed verbatim.
	if d := Plan(Request{Parallelism: 3}, m, m, Observed{MaxProcs: 16}); d.Parallelism != 3 {
		t.Fatalf("fixed parallelism: got %d", d.Parallelism)
	}
	// One CPU: never fan out.
	if d := Plan(Request{}, m, m, Observed{MaxProcs: 1}); d.Parallelism != 1 {
		t.Fatalf("1 cpu: got %d", d.Parallelism)
	}
	// Spare CPUs and big work: fan out, bounded by free scheduler slots.
	d := Plan(Request{}, m, m, Observed{MaxProcs: 16, FreeSlots: 2})
	if d.Parallelism != 2 {
		t.Fatalf("16 cpus, 2 free slots: got %d", d.Parallelism)
	}
	// Tiny work stays sequential even with CPUs to spare.
	if d := Plan(Request{}, meta(200), meta(200), Observed{MaxProcs: 16}); d.Parallelism != 1 {
		t.Fatalf("tiny join fanned out: %d", d.Parallelism)
	}
}

func TestPlanEpochs(t *testing.T) {
	outer, inner := meta(5000), meta(5000)
	outer.Epoch = 42
	d := Plan(Request{TopK: 5, Weighted: true}, outer, inner, Observed{})
	if d.Epochs != [2]uint64{42, 0} {
		t.Fatalf("epochs %v", d.Epochs)
	}
	if d.String() == "" {
		t.Fatal("empty decision string")
	}
}

// TestFanOutRule pins the measured fan-out rule on a 2-CPU host, on the
// metadata of the embedded benchmark's indexes (default 4 KiB pages: 42-point
// leaves, three levels). A join that runs to completion fans out once it
// plans at 900 accesses or more; the 4k x 4k full and self joins plan at 963
// (and run about twice as fast on two workers), the windows and bounded
// windows at 606-678 (and run in 1-2 ms, where a second worker saves under a
// millisecond). A ranked or limited query stays sequential at any size.
func TestFanOutRule(t *testing.T) {
	shape := func(count int) IndexMeta {
		m := meta(count)
		m.LeafCap = 42
		return m
	}
	m4k, m20k := shape(4_000), shape(20_000)
	window := &geom.Rect{MinX: 470, MinY: 470, MaxX: 530, MaxY: 530}
	free := Observed{MaxProcs: 2}
	for _, c := range []struct {
		name         string
		req          Request
		outer, inner IndexMeta
		obs          Observed
		want         int
	}{
		{"full and self 4k x 4k", Request{}, m4k, m4k, free, 2},
		{"top-10 20k x 20k", Request{TopK: 10}, m20k, m20k, free, 1},
		{"weighted top-10 20k x 20k", Request{TopK: 10, Weighted: true}, m20k, m20k, free, 1},
		{"limit 20k x 20k", Request{Limit: 100}, m20k, m20k, free, 1},
		{"window 20k x 20k", Request{Region: window}, m20k, m20k, free, 1},
		{"maxd window 20k x 20k", Request{Region: window, MaxDiameter: 100}, m20k, m20k, free, 1},
		{"full 4k x 4k, one free slot", Request{}, m4k, m4k, Observed{MaxProcs: 2, FreeSlots: 1}, 1},
		{"caller-fixed", Request{Parallelism: 3}, m4k, m4k, free, 3},
		{"caller-fixed top-10", Request{TopK: 10, Parallelism: 2}, m20k, m20k, free, 2},
	} {
		d := Plan(c.req, c.outer, c.inner, c.obs)
		if d.Parallelism != c.want {
			t.Errorf("%s: parallelism %d (%s), want %d", c.name, d.Parallelism, d, c.want)
		}
		switch {
		case c.outer.Count == 4_000 && d.EstAccesses != 963:
			t.Errorf("%s: estimate %d, the embedded 4k joins plan at 963", c.name, d.EstAccesses)
		case c.req.Region != nil && d.EstAccesses > 678:
			t.Errorf("%s: estimate %d, the embedded windows plan at <= 678", c.name, d.EstAccesses)
		}
	}
}
