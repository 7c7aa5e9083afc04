package rcj

import "testing"

// TestQueryCanonical pins the cache-key property: equal result-shaping
// fields collide, different ones never do, and the INJ default resolves
// like the executor will. The deprecated Parallelism is ignored, so it
// shapes no key.
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
	}
	seen := map[string]int{}
	for i, q := range distinct {
		k := q.Canonical()
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share canonical form %q", j, i, k)
		}
		seen[k] = i
	}
	for _, par := range []int{1, 4} {
		if got, want := (Query{TopK: 10, Parallelism: par}).Canonical(), (Query{TopK: 10}).Canonical(); got != want {
			t.Errorf("Parallelism %d: canonical form %q, want %q", par, got, want)
		}
	}
	// The zero query resolves INJ→OBJ like the executor.
	if (Query{}).Canonical() != (Query{Algorithm: OBJ}).Canonical() {
		t.Fatal("zero query did not resolve to OBJ")
	}
}
