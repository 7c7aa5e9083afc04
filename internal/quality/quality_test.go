package quality

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

func TestPrecisionRecallBasics(t *testing.T) {
	want := set(k(1, 1), k(2, 2), k(3, 3), k(4, 4))
	got := set(k(1, 1), k(2, 2), k(9, 9))
	pr := PrecisionRecall(want, got)
	if math.Abs(pr.Precision-100*2.0/3) > 1e-9 {
		t.Errorf("precision %g", pr.Precision)
	}
	if pr.Recall != 50 {
		t.Errorf("recall %g", pr.Recall)
	}
}

func TestPerfectAndDisjoint(t *testing.T) {
	a := set(k(1, 1), k(2, 2))
	pr := PrecisionRecall(a, a)
	if pr.Precision != 100 || pr.Recall != 100 {
		t.Errorf("identical sets: %+v", pr)
	}
	pr = PrecisionRecall(a, set(k(8, 8)))
	if pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("disjoint sets: %+v", pr)
	}
}

func TestEmptySets(t *testing.T) {
	a := set(k(1, 1))
	if pr := PrecisionRecall(a, nil); pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("empty got: %+v", pr)
	}
	if pr := PrecisionRecall(nil, a); pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("empty want: %+v", pr)
	}
	if pr := PrecisionRecall(nil, nil); pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("both empty: %+v", pr)
	}
}

// TestQuickBounds: precision and recall always land in [0, 100] and the
// measure is symmetric under swapping when sets have equal size.
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
		pr := PrecisionRecall(want, got)
		if pr.Precision < 0 || pr.Precision > 100 || pr.Recall < 0 || pr.Recall > 100 {
			return false
		}
		// Swapping roles swaps the measures.
		rp := PrecisionRecall(got, want)
		return math.Abs(pr.Precision-rp.Recall) < 1e-9 && math.Abs(pr.Recall-rp.Precision) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
