package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// The per-figure tests below read the package's one shared run of the
// evaluation (paper_test.go), not runs of their own.

func TestTable4Invariants(t *testing.T) {
	rows := paperOf[Table4Row](t, "table4")
	if len(rows) != 2 {
		t.Fatalf("want 2 combos, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Brute < r.INJ || r.Brute < r.BIJ || r.Brute < r.OBJ {
			t.Errorf("%s: BRUTE candidates %d not the maximum (INJ=%d BIJ=%d OBJ=%d)", r.Combo, r.Brute, r.INJ, r.BIJ, r.OBJ)
		}
		for name, c := range map[string]int64{"INJ": r.INJ, "BIJ": r.BIJ, "OBJ": r.OBJ} {
			if c < r.RCJResults {
				t.Errorf("%s: %s candidates %d < results %d (filter lost results)", r.Combo, name, c, r.RCJResults)
			}
		}
		if r.OBJ > r.BIJ {
			t.Errorf("%s: symmetric pruning enlarged the candidate set: OBJ=%d > BIJ=%d", r.Combo, r.OBJ, r.BIJ)
		}
		if r.RCJResults == 0 {
			t.Errorf("%s: no RCJ results at all", r.Combo)
		}
	}
}

func checkResemblance(t *testing.T, series []ResemblanceSeries, wantCombos int) {
	t.Helper()
	if len(series) != wantCombos {
		t.Fatalf("want %d series, got %d", wantCombos, len(series))
	}
	for _, s := range series {
		if len(s.Rows) == 0 {
			t.Errorf("%s: empty series", s.Combo)
		}
		prevRecall := -1.0
		for _, r := range s.Rows {
			if r.Precision() < 0 || r.Precision() > 100.000001 || r.Recall() < 0 || r.Recall() > 100.000001 {
				t.Errorf("%s: precision/recall out of range at param %g: %+v", s.Combo, r.Param, r)
			}
			// The baselines' result sets grow as the parameter grows, so
			// recall against the fixed RCJ set is non-decreasing.
			if r.Recall() < prevRecall-1e-9 {
				t.Errorf("%s: recall decreased at param %g: %g -> %g", s.Combo, r.Param, prevRecall, r.Recall())
			}
			prevRecall = r.Recall()
		}
	}
}

func TestFig10EpsilonResemblance(t *testing.T) {
	series := paperOf[ResemblanceSeries](t, "fig10")
	checkResemblance(t, series, 2)
}

func TestFig11KClosestResemblance(t *testing.T) {
	series := paperOf[ResemblanceSeries](t, "fig11")
	checkResemblance(t, series, 2)
}

func TestFig12KNNResemblance(t *testing.T) {
	series := paperOf[ResemblanceSeries](t, "fig12")
	checkResemblance(t, series, 2)
}

func TestFig13AlgorithmsAgree(t *testing.T) {
	rows := paperOf[Fig13Row](t, "fig13")
	if len(rows) != len(Combos)*3 {
		t.Fatalf("want %d rows, got %d", len(Combos)*3, len(rows))
	}
	byCombo := map[string]map[core.Algorithm]int64{}
	for _, r := range rows {
		if byCombo[r.Combo] == nil {
			byCombo[r.Combo] = map[core.Algorithm]int64{}
		}
		byCombo[r.Combo][r.Algorithm] = r.Results
	}
	for combo, m := range byCombo {
		if m[core.AlgINJ] != m[core.AlgBIJ] || m[core.AlgBIJ] != m[core.AlgOBJ] {
			t.Errorf("%s: algorithms disagree on result count: %v", combo, m)
		}
	}
	// SP and SP' join the same datasets in either orientation: same result
	// set size (the RCJ predicate is symmetric).
	if byCombo["SP"][core.AlgOBJ] != byCombo["SP'"][core.AlgOBJ] {
		t.Errorf("SP and SP' result counts differ: %d vs %d",
			byCombo["SP"][core.AlgOBJ], byCombo["SP'"][core.AlgOBJ])
	}
}

func TestFig14VerificationSkipped(t *testing.T) {
	rows := paperOf[Fig14Row](t, "fig14")
	for _, r := range rows {
		if r.WithoutVerification.NodeAccesses > r.WithVerification.NodeAccesses {
			t.Errorf("%v: skipping verification increased node accesses: %d > %d",
				r.Algorithm, r.WithoutVerification.NodeAccesses, r.WithVerification.NodeAccesses)
		}
	}
}

func TestFig15BufferMonotone(t *testing.T) {
	rows := paperOf[Fig15Row](t, "fig15")
	// LRU is a stack algorithm: page faults are non-increasing in capacity.
	faults := map[core.Algorithm][]int64{}
	for _, r := range rows {
		faults[r.Algorithm] = append(faults[r.Algorithm], r.Cost.Faults)
	}
	for alg, fs := range faults {
		for i := 1; i < len(fs); i++ {
			if fs[i] > fs[i-1] {
				t.Errorf("%v: faults grew with buffer size: %v", alg, fs)
			}
		}
	}
}

func TestFig16ResultsAgreeAndGrow(t *testing.T) {
	rows := paperOf[SweepRow](t, "fig16")
	results := map[string]map[core.Algorithm]int64{}
	for _, r := range rows {
		if results[r.Param] == nil {
			results[r.Param] = map[core.Algorithm]int64{}
		}
		results[r.Param][r.Algorithm] = r.Results
	}
	var prev int64 = -1
	for _, n := range []string{"50K", "100K", "200K", "400K", "800K"} {
		m := results[n]
		if m[core.AlgINJ] != m[core.AlgBIJ] || m[core.AlgBIJ] != m[core.AlgOBJ] || m[core.AlgOBJ] != m[core.AlgGabriel] {
			t.Errorf("n=%s: algorithms disagree: %v", n, m)
		}
		if m[core.AlgOBJ] < prev {
			t.Errorf("result cardinality shrank at n=%s: %d < %d (paper: linear growth)", n, m[core.AlgOBJ], prev)
		}
		prev = m[core.AlgOBJ]
	}
}

func TestFig17ResultsAgree(t *testing.T) {
	rows := paperOf[SweepRow](t, "fig17")
	results := map[string]map[core.Algorithm]int64{}
	for _, r := range rows {
		if results[r.Param] == nil {
			results[r.Param] = map[core.Algorithm]int64{}
		}
		results[r.Param][r.Algorithm] = r.Results
	}
	for param, m := range results {
		if m[core.AlgINJ] != m[core.AlgBIJ] || m[core.AlgBIJ] != m[core.AlgOBJ] {
			t.Errorf("ratio %s: algorithms disagree: %v", param, m)
		}
	}
	// The paper observes the result size is maximized at the balanced
	// split.
	if results["1:1"][core.AlgOBJ] < results["1:4"][core.AlgOBJ] ||
		results["1:1"][core.AlgOBJ] < results["4:1"][core.AlgOBJ] {
		t.Logf("note: balanced split did not maximize result size at this scale: %v", results)
	}
}

func TestFig18ResultsAgree(t *testing.T) {
	rows := paperOf[SweepRow](t, "fig18")
	results := map[string]map[core.Algorithm]int64{}
	for _, r := range rows {
		if results[r.Param] == nil {
			results[r.Param] = map[core.Algorithm]int64{}
		}
		results[r.Param][r.Algorithm] = r.Results
	}
	for param, m := range results {
		if m[core.AlgINJ] != m[core.AlgBIJ] || m[core.AlgBIJ] != m[core.AlgOBJ] {
			t.Errorf("w=%s: algorithms disagree: %v", param, m)
		}
	}
}

func TestPrintedOutputMentionsFigure(t *testing.T) {
	var sb strings.Builder
	cfg := Config{Scale: 0.005, W: &sb}
	if _, err := Fig10(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Errorf("printed output missing figure header:\n%s", sb.String())
	}
}
