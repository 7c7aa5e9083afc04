package delaunay

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortByKeyMatchesSort holds the radix sort to slices.Sort on int64
// keys (through idKey) and to slices.SortStableFunc on the order of equal
// keys: empty and one-element input, duplicate-heavy keys, keys offset far
// from zero, sparse keys (steps of 2⁴⁰, so only the high bytes differ),
// negative keys and the full range, math.MinInt64 and math.MaxInt64
// included. One scratch buffer serves every call.
func TestSortByKeyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type item struct {
		key int64
		seq int // input position: equal keys must keep its order
	}
	gens := map[string]func(n int) int64{
		"small":      func(n int) int64 { return int64(rng.Intn(max(n, 1))) },
		"duplicates": func(int) int64 { return int64(rng.Intn(3)) },
		"offset":     func(n int) int64 { return 1<<50 + int64(rng.Intn(max(n, 1))) },
		"sparse":     func(int) int64 { return int64(rng.Intn(1000)-500) << 40 },
		"negative":   func(n int) int64 { return -int64(rng.Intn(max(n, 1))) - 1 },
		"full": func(int) int64 {
			switch rng.Intn(4) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(rng.Uint64())
		},
	}
	var tmp []item
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
			in := make([]item, n)
			for i := range in {
				in[i] = item{gen(n), i}
			}
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.key, b.key) })
			keys := make([]int64, n)
			for i, it := range in {
				keys[i] = it.key
			}
			slices.Sort(keys)
			got := slices.Clone(in)
			tmp = sortByKey(got, tmp, func(it item) uint64 { return idKey(it.key) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: radix order differs from the stable sort", name, n)
			}
			for i, it := range got {
				if it.key != keys[i] {
					t.Fatalf("%s n=%d: key %d is %d, slices.Sort has %d", name, n, i, it.key, keys[i])
				}
			}
		}
	}
}

// TestFloatKeyOrder checks that floatKey orders floats as < does, with −0
// and +0 on one key, across signs, magnitudes and subnormals.
func TestFloatKeyOrder(t *testing.T) {
	vs := []float64{-math.MaxFloat64, -1e300, -1, -math.SmallestNonzeroFloat64 * 3, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1022, 1, math.Nextafter(1, 2), 1e300, math.MaxFloat64}
	for _, a := range vs {
		for _, b := range vs {
			if got, want := cmp.Compare(floatKey(a), floatKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("floatKey order of %g and %g is %d, want %d", a, b, got, want)
			}
		}
	}
}
