package rcj

import (
	"context"
	"math/rand"
	"testing"
)

// TestRunBatchesMatchesRun pins the batch-granular stream: concatenating
// RunBatches' slices reproduces Run's sequential stream exactly, pair for
// pair and in order, for plain, predicate, and TopK queries.
func TestRunBatchesMatchesRun(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(7))
	pts := testPoints(rng, 400, 0)
	ix, err := eng.BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()

	for ci, qry := range queryCases() {
		var want []Pair
		for p, err := range eng.Run(ctx, ix, ix, qry) {
			if err != nil {
				t.Fatalf("case %d: run: %v", ci, err)
			}
			want = append(want, p)
		}
		var got []Pair
		var st Stats
		bq := qry
		bq.Stats = &st
		for b, err := range eng.RunBatches(ctx, ix, ix, bq) {
			if err != nil {
				t.Fatalf("case %d: run batches: %v", ci, err)
			}
			if len(b) == 0 {
				t.Fatalf("case %d: empty batch", ci)
			}
			got = append(got, b...)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d batched pairs, want %d", ci, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %d pair %d: %+v != %+v", ci, i, got[i], want[i])
			}
		}
		if st.Results != int64(len(got)) {
			t.Fatalf("case %d: stats results %d, emitted %d", ci, st.Results, len(got))
		}
	}

	// Breaking out of the batch iterator cancels the producer cleanly.
	count := 0
	for _, err := range eng.RunBatches(ctx, ix, ix, Query{}) {
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count == 2 {
			break
		}
	}

	// Validation errors surface as the iterator's first element.
	for _, err := range eng.RunBatches(ctx, ix, ix, Query{Limit: -1}) {
		if err == nil {
			t.Fatal("invalid query streamed a batch")
		}
		break
	}
}

// TestBatchEnvelope pins the envelope algebra: the envelope is the loosest
// member, so every member's result is a subset of the envelope's, and
// post-filtering the envelope with each member's Matches reproduces that
// member's own pushdown run.
func TestBatchEnvelope(t *testing.T) {
	region := &Rect{MinX: 1000, MinY: 1000, MaxX: 6000, MaxY: 6000}
	other := &Rect{MinX: 4000, MinY: 4000, MaxX: 9000, MaxY: 9000}
	members := []Query{
		{MaxDiameter: 500, Region: region},
		{MaxDiameter: 900, MinDistance: 200, Region: other},
		{MaxDiameter: 700, MinDistance: 400, Region: region},
	}
	env := BatchEnvelope(members)
	if env.MaxDiameter != 900 {
		t.Fatalf("envelope MaxDiameter = %g, want 900 (max)", env.MaxDiameter)
	}
	if env.MinDistance != 0 {
		t.Fatalf("envelope MinDistance = %g, want 0 (the first member has no floor)", env.MinDistance)
	}
	if e := BatchEnvelope([]Query{{MinDistance: 400}, {MinDistance: 200}}); e.MinDistance != 200 {
		t.Fatalf("envelope MinDistance = %g, want 200 (min of the floors)", e.MinDistance)
	}
	if env.Region == nil || *env.Region != (Rect{MinX: 1000, MinY: 1000, MaxX: 9000, MaxY: 9000}) {
		t.Fatalf("envelope Region = %+v, want union", env.Region)
	}
	// An unbounded member unbounds the diameter; a windowless member drops
	// the window.
	env = BatchEnvelope([]Query{{MaxDiameter: 500}, {}})
	if env.MaxDiameter != 0 || env.Region != nil {
		t.Fatalf("envelope with unconstrained member = %+v", env)
	}

	// Equivalence: envelope + per-member post-filter == member pushdown.
	eng := NewEngine(EngineConfig{})
	rng := rand.New(rand.NewSource(9))
	pts := testPoints(rng, 400, 0)
	ix, err := eng.BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()

	var envPairs []Pair
	for p, err := range eng.Run(ctx, ix, ix, BatchEnvelope(members)) {
		if err != nil {
			t.Fatal(err)
		}
		envPairs = append(envPairs, p)
	}
	for mi, m := range members {
		var want []Pair
		for p, err := range eng.Run(ctx, ix, ix, m) {
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
		var got []Pair
		for _, p := range envPairs {
			if m.Matches(p) {
				got = append(got, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("member %d: filtered envelope has %d pairs, pushdown %d", mi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("member %d pair %d: %+v != %+v", mi, i, got[i], want[i])
			}
		}
	}
}

// TestQueryCanonical pins the cache-key property: equal result-shaping
// fields collide, different ones never do, and the INJ default resolves
// like the executor will.
func TestQueryCanonical(t *testing.T) {
	a := Query{MaxDiameter: 500, TopK: 10}
	b := Query{MaxDiameter: 500, TopK: 10, SortByDiameter: true, Stats: &Stats{}}
	if a.Canonical() != b.Canonical() {
		t.Fatal("presentation-only fields changed the canonical form")
	}
	distinct := []Query{
		{},
		{Algorithm: INJ, ForceAlgorithm: true},
		{MaxDiameter: 500},
		{MaxDiameter: 500.0000001},
		{MinDistance: 500},
		{Region: &Rect{MaxX: 1, MaxY: 1}},
		{Region: &Rect{MaxX: 1, MaxY: 2}},
		{TopK: 10},
		{TopK: 11},
		{Limit: 10},
		{Parallelism: 2},
	}
	seen := map[string]int{}
	for i, q := range distinct {
		k := q.Canonical()
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share canonical form %q", j, i, k)
		}
		seen[k] = i
	}
	// The zero query resolves INJ→OBJ like the executor.
	if (Query{}).EffectiveAlgorithm() != OBJ {
		t.Fatal("zero query did not resolve to OBJ")
	}
	if (Query{Algorithm: INJ, ForceAlgorithm: true}).EffectiveAlgorithm() != INJ {
		t.Fatal("forced INJ did not stay INJ")
	}
}
