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
