package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

var updateBench = flag.Bool("update", false, "rewrite the repository's BENCH_paper.json from this build's run")

// paperScale is the one scale the package's tests run the evaluation at:
// thousands of points per side, large enough for the paper's comparisons to
// show, small enough for the tier-1 suite.
const paperScale = 0.02

// paperRun is the package's one run of every experiment, shared by the
// tests that read it.
var paperRun struct {
	once sync.Once
	rows map[string]any
	err  error
}

func paperRows(t *testing.T) map[string]any {
	t.Helper()
	paperRun.once.Do(func() {
		paperRun.rows = make(map[string]any, len(Experiments))
		for _, e := range Experiments {
			rows, err := e.Run(Config{Scale: paperScale})
			if err != nil {
				paperRun.err = fmt.Errorf("%s: %w", e.Name, err)
				return
			}
			paperRun.rows[e.Name] = rows
		}
	})
	if paperRun.err != nil {
		t.Fatal(paperRun.err)
	}
	return paperRun.rows
}

// paperOf returns one experiment's typed rows from the shared run.
func paperOf[R any](t *testing.T, name string) []R {
	t.Helper()
	return paperRows(t)[name].([]R)
}

// benchRow is one line of BENCH_paper.json: the integer columns of one
// (experiment, row, algorithm).
type benchRow struct {
	Exp    string           `json:"exp"`
	Row    string           `json:"row"`
	Alg    string           `json:"alg"`
	Counts map[string]int64 `json:"counts"`
}

func ioCounts(c cost.Breakdown) map[string]int64 {
	return map[string]int64{"faults": c.Faults, "node_accesses": c.NodeAccesses}
}

func withResults(c cost.Breakdown, results int64) map[string]int64 {
	m := ioCounts(c)
	m["results"] = results
	return m
}

// project keeps the integer columns of one experiment's rows: counts of
// faults, node accesses, candidates, results, pairs, verify visits, pages
// and height. Times and percentages are left out; every percentage the
// printers show is a ratio of two columns kept here.
func project(t *testing.T, name string, rows any) []benchRow {
	t.Helper()
	var out []benchRow
	add := func(row, alg string, counts map[string]int64) {
		out = append(out, benchRow{Exp: name, Row: row, Alg: alg, Counts: counts})
	}
	switch rows := rows.(type) {
	case []Table4Row:
		for _, r := range rows {
			add(r.Combo, "BRUTE", map[string]int64{"candidates": r.Brute})
			add(r.Combo, "INJ", map[string]int64{"candidates": r.INJ})
			add(r.Combo, "BIJ", map[string]int64{"candidates": r.BIJ})
			add(r.Combo, "OBJ", map[string]int64{"candidates": r.OBJ})
			add(r.Combo, "RCJ", map[string]int64{"results": r.RCJResults})
		}
	case []ResemblanceSeries:
		for _, s := range rows {
			for _, r := range s.Rows {
				add(fmt.Sprintf("%s/%g", s.Combo, r.Param), "",
					map[string]int64{"pairs": r.PairCount, "common": r.Common, "rcj": r.RCJ})
			}
		}
	case []Fig13Row:
		for _, r := range rows {
			add(r.Combo, r.Algorithm.String(), withResults(r.Cost, r.Results))
		}
	case []Fig14Row:
		for _, r := range rows {
			add("with-verification", r.Algorithm.String(), ioCounts(r.WithVerification))
			add("without-verification", r.Algorithm.String(), ioCounts(r.WithoutVerification))
		}
	case []Fig15Row:
		for _, r := range rows {
			add(fmt.Sprintf("buffer=%g%%", 100*r.BufferFrac), r.Algorithm.String(), ioCounts(r.Cost))
		}
	case []SweepRow:
		for _, r := range rows {
			add(r.Param, r.Algorithm.String(), withResults(r.Cost, r.Results))
		}
	case []AblationRow:
		for _, r := range rows {
			counts := map[string]int64{}
			if r.Cost.NodeAccesses > 0 { // the build-method rows time a build, not a join
				counts = ioCounts(r.Cost)
			}
			maps.Copy(counts, r.Counts)
			add(r.Study, r.Variant, counts)
		}
	case []CostModelRow:
		for _, r := range rows {
			add(fmt.Sprintf("sample-every=%d", r.SampleEvery), r.Algorithm.String(), map[string]int64{
				"predicted_accesses": r.PredictedAccesses, "measured_accesses": r.MeasuredAccesses,
				"predicted_faults": r.PredictedFaults, "measured_faults": r.MeasuredFaults,
				"predicted_candidates": r.PredictedCands, "measured_candidates": r.MeasuredCands,
			})
		}
	case []ResultSizeRow:
		for _, r := range rows {
			add(fmt.Sprintf("%s/n=%d", r.Distribution, r.N), "OBJ", map[string]int64{"results": r.Results})
		}
	case []NetworkRow:
		for _, r := range rows {
			add(fmt.Sprintf("grid=%dx%d", r.GridSide, r.GridSide), "", map[string]int64{
				"points": int64(r.Points), "network_pairs": r.NetworkPairs, "euclid_pairs": r.EuclidPairs,
				"common": r.Common, "candidates": r.Candidates, "settled_nodes": r.SettledNodes,
			})
		}
	default:
		t.Fatalf("%s: no projection for rows of type %T", name, rows)
	}
	return out
}

// paperBench projects the shared run onto BENCH_paper.json's rows, sorted
// by key.
func paperBench(t *testing.T) []benchRow {
	t.Helper()
	run := paperRows(t)
	var rows []benchRow
	for _, e := range Experiments {
		rows = append(rows, project(t, e.Name, run[e.Name])...)
	}
	key := func(r benchRow) string { return r.Exp + "\x00" + r.Row + "\x00" + r.Alg }
	slices.SortFunc(rows, func(a, b benchRow) int { return strings.Compare(key(a), key(b)) })
	for i := 1; i < len(rows); i++ {
		if key(rows[i]) == key(rows[i-1]) {
			t.Fatalf("duplicate row key %q", key(rows[i]))
		}
	}
	return rows
}

// encodeBench renders the rows one per line under a header naming the run's
// configuration, so a change shows up as a per-row diff.
func encodeBench(t *testing.T, rows []benchRow) []byte {
	t.Helper()
	cfg := Config{Scale: paperScale}.withDefaults()
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"scale\": %g,\n  \"buffer_frac\": %g,\n  \"page_size\": %d,\n  \"rows\": [\n",
		cfg.Scale, cfg.BufferFrac, cfg.PageSize)
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("    ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

// TestBenchPaper pins the paper's evaluation in its own units: every
// integer column of every experiment at scale 0.02 must equal the committed
// BENCH_paper.json byte for byte. A change to traversal order, packing,
// buffer policy, the filter or the predicate shows up as a reviewed diff of
// that file; regenerate it with
//
//	go test ./internal/exp -run TestBenchPaper -update
func TestBenchPaper(t *testing.T) {
	got := encodeBench(t, paperBench(t))
	if !json.Valid(got) {
		t.Fatalf("encoded benchmark is not valid JSON:\n%s", got)
	}
	path := filepath.Join("..", "..", "BENCH_paper.json")
	if *updateBench {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/exp -run TestBenchPaper -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("committed, not produced: %s", l)
		}
	}
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("produced, not committed: %s", l)
		}
	}
	t.Fatalf("BENCH_paper.json differs from this build's run; if the change is intended, regenerate it with: go test ./internal/exp -run TestBenchPaper -update")
}

// TestPaperShape asserts the paper's comparative claims on the shared run,
// where they hold at this scale. The per-figure tests beside it assert the
// rest on the same run: equal result counts across algorithms (Figs. 13,
// 16-18), faults non-increasing in buffer size (Fig. 15), and the
// candidate and fault sanity bounds of Table 4 and the ablations.
func TestPaperShape(t *testing.T) {
	// Faults OBJ ≤ BIJ ≤ INJ on every row of every I/O chart.
	faults := map[string]map[string]int64{}
	for _, r := range paperBench(t) {
		switch r.Exp {
		case "fig13", "fig15", "fig16", "fig17", "fig18":
			k := r.Exp + " " + r.Row
			if faults[k] == nil {
				faults[k] = map[string]int64{}
			}
			faults[k][r.Alg] = r.Counts["faults"]
		}
	}
	if len(faults) != 4+5+5+5+5 {
		t.Errorf("fault order checked on %d rows, want 24", len(faults))
	}
	for k, f := range faults {
		if !(f["OBJ"] <= f["BIJ"] && f["BIJ"] <= f["INJ"]) {
			t.Errorf("%s: faults OBJ=%d BIJ=%d INJ=%d, want OBJ ≤ BIJ ≤ INJ", k, f["OBJ"], f["BIJ"], f["INJ"])
		}
	}

	// The Gabriel path reads each page of both trees once, fewer than OBJ
	// on every Fig. 16 row.
	for k, f := range faults {
		if strings.HasPrefix(k, "fig16 ") && !(f["GABRIEL"] > 0 && f["GABRIEL"] < f["OBJ"]) {
			t.Errorf("%s: faults GABRIEL=%d OBJ=%d, want 0 < GABRIEL < OBJ", k, f["GABRIEL"], f["OBJ"])
		}
	}

	// Table 4: symmetric pruning beats single-point probes, which beat
	// leaf-batch probes without it; no filter loses a result.
	for _, r := range paperOf[Table4Row](t, "table4") {
		if !(r.OBJ < r.INJ && r.INJ < r.BIJ) {
			t.Errorf("%s: candidates OBJ=%d INJ=%d BIJ=%d, want OBJ < INJ < BIJ", r.Combo, r.OBJ, r.INJ, r.BIJ)
		}
	}

	// On uniform data |RCJ| follows the Poisson expectation
	// 4|P||Q|/(|P|+|Q|) within 5 % once each side has 1 000 points.
	cfg := Config{Scale: paperScale}.withDefaults()
	checkModel := func(what string, nP, nQ int, got int64) {
		if nP < 1000 || nQ < 1000 {
			return
		}
		want := cost.ExpectedUniformResultSize(nP, nQ)
		if math.Abs(float64(got)-want) > 0.05*want {
			t.Errorf("%s: |RCJ| = %d, model 4|P||Q|/(|P|+|Q|) = %.0f (|P|=%d |Q|=%d)", what, got, want, nP, nQ)
		}
	}
	for _, r := range paperOf[SweepRow](t, "fig16") {
		var nK int
		if _, err := fmt.Sscanf(r.Param, "%dK", &nK); err != nil {
			t.Fatalf("fig16 row %q: %v", r.Param, err)
		}
		n := cfg.scaled(nK * 1000)
		checkModel("fig16 n="+r.Param, n, n, r.Results)
	}
	for _, r := range paperOf[SweepRow](t, "fig17") {
		var a, b int
		if _, err := fmt.Sscanf(r.Param, "%d:%d", &a, &b); err != nil {
			t.Fatalf("fig17 row %q: %v", r.Param, err)
		}
		total := cfg.scaled(400_000)
		nP := int(float64(total) * float64(a) / float64(a+b))
		checkModel("fig17 |P|:|Q|="+r.Param, nP, total-nP, r.Results)
	}
	for _, r := range paperOf[ResultSizeRow](t, "resultsize") {
		if r.Distribution == "uniform" {
			checkModel(fmt.Sprintf("resultsize n=%d", r.N), r.N, r.N, r.Results)
		}
	}

	// The sampled cost model (§6) misses node accesses by no more than when
	// this test was written: 1.78 % on INJ, 30.02 / 30.53 % on BIJ / OBJ.
	for _, r := range paperOf[CostModelRow](t, "costmodel") {
		bound := 30.6
		if r.Algorithm == core.AlgINJ {
			bound = 1.8
		}
		if r.AccessErrPct > bound {
			t.Errorf("%v: sampled cost model misses node accesses by %.2f%%, bound %.1f%%", r.Algorithm, r.AccessErrPct, bound)
		}
	}
}
