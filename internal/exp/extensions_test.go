package exp

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/workload"
)

func TestCostModelPredictionsReasonable(t *testing.T) {
	rows := paperOf[CostModelRow](t, "costmodel")
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredAccesses == 0 || r.PredictedAccesses == 0 {
			t.Errorf("%v: empty counters: %+v", r.Algorithm, r)
		}
		// The estimator is approximate; at small scale allow generous slack
		// but catch order-of-magnitude breakage (e.g. a broken sampler).
		if r.AccessErrPct > 60 {
			t.Errorf("%v: node-access prediction off by %.1f%%", r.Algorithm, r.AccessErrPct)
		}
		if r.CandErrPct > 60 {
			t.Errorf("%v: candidate prediction off by %.1f%%", r.Algorithm, r.CandErrPct)
		}
	}
}

func TestResultSizeStudy(t *testing.T) {
	rows := paperOf[ResultSizeRow](t, "resultsize")
	byDist := map[string][]ResultSizeRow{}
	for _, r := range rows {
		if r.Results < 0 || r.Ratio < 0 {
			t.Errorf("negative measurement: %+v", r)
		}
		byDist[r.Distribution] = append(byDist[r.Distribution], r)
	}
	for _, name := range []string{"uniform", "grid", "collinear", "circle", "two-clusters"} {
		if len(byDist[name]) == 0 {
			t.Errorf("distribution %s missing from study", name)
		}
	}
	// Collinear inputs are the 1D extreme: the per-point pair count must
	// stay bounded (only neighbors along the line can pair), so the ratio
	// cannot exceed a small constant.
	for _, r := range byDist["collinear"] {
		if r.Ratio > 3 {
			t.Errorf("collinear ratio %.2f looks superlinear", r.Ratio)
		}
	}
	// Every distribution produced some pairs.
	for name, rs := range byDist {
		for _, r := range rs {
			if r.Results == 0 {
				t.Errorf("%s at n=%d produced no pairs", name, r.N)
			}
		}
	}
}

func TestAblationStudies(t *testing.T) {
	rows := paperOf[AblationRow](t, "ablate")
	byStudy := map[string]map[string]AblationRow{}
	for _, r := range rows {
		if byStudy[r.Study] == nil {
			byStudy[r.Study] = map[string]AblationRow{}
		}
		byStudy[r.Study][r.Variant] = r
	}
	// Random leaf order cannot fault less than depth-first (locality).
	so := byStudy["search-order"]
	if so["random"].Cost.Faults < so["depth-first"].Cost.Faults {
		t.Errorf("random order faulted less than depth-first: %d < %d",
			so["random"].Cost.Faults, so["depth-first"].Cost.Faults)
	}
	// No buffer faults at least as much as the 1% buffer.
	bf := byStudy["buffer"]
	var withBuf, noBuf AblationRow
	for v, r := range bf {
		if v == "none" {
			noBuf = r
		} else {
			withBuf = r
		}
	}
	if noBuf.Cost.Faults < withBuf.Cost.Faults {
		t.Errorf("bufferless run faulted less: %d < %d", noBuf.Cost.Faults, withBuf.Cost.Faults)
	}
	// The L1 join returns one result set under every algorithm, and OBJ,
	// which seeds nothing under L1, reads what BIJ reads.
	l1 := byStudy["l1-metric"]
	for _, alg := range []string{"INJ", "BIJ"} {
		if l1[alg].Counts["results"] != l1["OBJ"].Counts["results"] {
			t.Errorf("L1 %s: %d results, OBJ %d", alg, l1[alg].Counts["results"], l1["OBJ"].Counts["results"])
		}
	}
	if !maps.Equal(l1["BIJ"].Counts, l1["OBJ"].Counts) {
		t.Errorf("L1 OBJ counts %v, BIJ %v: an L1 join seeds nothing", l1["OBJ"].Counts, l1["BIJ"].Counts)
	}
	// All studies present.
	for _, s := range []string{"search-order", "symmetric-pruning", "face-rule", "buffer", "build-method", "split-policy", "l1-metric"} {
		if len(byStudy[s]) < 2 {
			t.Errorf("study %s has %d variants", s, len(byStudy[s]))
		}
	}
}

func TestNetworkStudy(t *testing.T) {
	rows := paperOf[NetworkRow](t, "network")
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.NetworkPairs == 0 || r.EuclidPairs == 0 {
			t.Errorf("grid %d: empty result (%d network, %d euclid)", r.GridSide, r.NetworkPairs, r.EuclidPairs)
		}
		if r.Precision() < 0 || r.Precision() > 100 || r.Recall() < 0 || r.Recall() > 100 {
			t.Errorf("grid %d: precision/recall out of range: %+v", r.GridSide, r)
		}
		// The metrics agree substantially (same embedding) but not fully —
		// full agreement would mean the network study is degenerate.
		if r.Precision() == 100 && r.Recall() == 100 && r.GridSide >= 16 {
			t.Errorf("grid %d: metrics agree perfectly — detours had no effect?", r.GridSide)
		}
	}
}

func TestLeafSamplingProcessesSubset(t *testing.T) {
	cfg := Config{Scale: 0.01}.withDefaults()
	cb, _ := ComboByName("SP")
	env, err := cfg.NewComboEnv(cb)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := env.Run(core.Options{Algorithm: core.AlgOBJ, LeafSampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Stats.Results >= full.Stats.Results {
		t.Errorf("sampled run produced %d results, full %d", sampled.Stats.Results, full.Stats.Results)
	}
	if sampled.Stats.Results == 0 {
		t.Error("sampled run produced nothing")
	}
	// The sample should be within a factor ~2 of 1/10th of the full run.
	frac := float64(sampled.Stats.Results) / float64(full.Stats.Results)
	if frac < 0.03 || frac > 0.3 {
		t.Errorf("sample fraction %.3f far from 0.1", frac)
	}
}

// TestPoissonModelMatchesUniformMeasurement validates the closed-form
// result-size expectation against live joins: uniform data must land within
// a few percent of 4·nP·nQ/(nP+nQ).
func TestPoissonModelMatchesUniformMeasurement(t *testing.T) {
	for _, sz := range [][2]int{{2000, 2000}, {1000, 3000}, {4000, 1000}} {
		env, err := NewEnv(workload.Uniform(sz[1], 1), workload.Uniform(sz[0], 2), 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
		if err != nil {
			t.Fatal(err)
		}
		want := cost.ExpectedUniformResultSize(sz[0], sz[1])
		ratio := float64(res.Stats.Results) / want
		if ratio < 0.9 || ratio > 1.05 {
			t.Errorf("|P|=%d |Q|=%d: measured %d vs model %.0f (ratio %.3f)",
				sz[0], sz[1], res.Stats.Results, want, ratio)
		}
	}
}
