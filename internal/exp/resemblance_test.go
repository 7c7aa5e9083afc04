package exp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/joins"
)

func set(keys ...joins.Key) map[joins.Key]struct{} {
	m := make(map[joins.Key]struct{}, len(keys))
	for _, k := range keys {
		m[k] = struct{}{}
	}
	return m
}

func k(p, q int64) joins.Key { return joins.Key{PID: p, QID: q} }

// pr scores a baseline result got against the reference want, as the
// resemblance figures do.
func pr(want, got map[joins.Key]struct{}) ResemblanceRow {
	return resemblance(0, int64(len(got)), want, got)
}

func TestPrecisionRecallBasics(t *testing.T) {
	want := set(k(1, 1), k(2, 2), k(3, 3), k(4, 4))
	got := set(k(1, 1), k(2, 2), k(9, 9))
	r := pr(want, got)
	if math.Abs(r.Precision()-100*2.0/3) > 1e-9 {
		t.Errorf("precision %g", r.Precision())
	}
	if r.Recall() != 50 {
		t.Errorf("recall %g", r.Recall())
	}
}

func TestPerfectAndDisjoint(t *testing.T) {
	a := set(k(1, 1), k(2, 2))
	if r := pr(a, a); r.Precision() != 100 || r.Recall() != 100 {
		t.Errorf("identical sets: %+v", r)
	}
	if r := pr(a, set(k(8, 8))); r.Precision() != 0 || r.Recall() != 0 {
		t.Errorf("disjoint sets: %+v", r)
	}
}

func TestEmptySets(t *testing.T) {
	a := set(k(1, 1))
	if r := pr(a, nil); r.Precision() != 0 || r.Recall() != 0 {
		t.Errorf("empty got: %+v", r)
	}
	if r := pr(nil, a); r.Precision() != 0 || r.Recall() != 0 {
		t.Errorf("empty want: %+v", r)
	}
	if r := pr(nil, nil); r.Precision() != 0 || r.Recall() != 0 {
		t.Errorf("both empty: %+v", r)
	}
}

// TestQuickBounds: precision and recall always land in [0, 100], and
// swapping the two sets swaps the measures.
func TestQuickBounds(t *testing.T) {
	f := func(wantIDs, gotIDs []uint8) bool {
		want := make(map[joins.Key]struct{})
		for _, id := range wantIDs {
			want[k(int64(id), int64(id))] = struct{}{}
		}
		got := make(map[joins.Key]struct{})
		for _, id := range gotIDs {
			got[k(int64(id), int64(id))] = struct{}{}
		}
		r := pr(want, got)
		if r.Precision() < 0 || r.Precision() > 100 || r.Recall() < 0 || r.Recall() > 100 {
			return false
		}
		sw := pr(got, want)
		return math.Abs(r.Precision()-sw.Recall()) < 1e-9 && math.Abs(r.Recall()-sw.Precision()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
