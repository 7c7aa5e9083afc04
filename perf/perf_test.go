package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads and their traced runs at -scale 0.02
// and guards the schema: the output carries exactly the workloads and
// metric names BENCHMARK.json lists, and the written predictions about
// counts hold (same node accesses and candidates warm and cold, no fault
// when everything is cached).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons; skipped with -short")
	}
	env, err := newEnvironment(context.Background(), "", "", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()

	raw, err := os.ReadFile(filepath.Join(env.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(benchmarkSpec())
	json.Unmarshal(b, &want)
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the benchmark's own tables; regenerate it with `perf -emit-spec`")
	}

	traced := map[string]map[string]float64{}
	for _, ws := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: ws.Name, seed: 1, seconds: 0.2, scale: 0.02, trace: trace, env: env})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", ws.Name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed", ws.Name, trace, res.failed, res.attempted)
			}
			specs := endToEndSpecs
			if trace {
				specs = perLayerSpecs
				traced[ws.Name] = res.metrics
			}
			if len(res.metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, the schema lists %d", ws.Name, trace, len(res.metrics), len(specs))
			}
			for _, m := range specs {
				if _, ok := res.metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", ws.Name, trace, m.Name)
				}
			}
		}
	}
	warm, cold := traced[wEmbedWarm], traced[wEmbedCold]
	for _, name := range []string{"rtree.node_accesses_per_op", "core.candidates_per_op"} {
		if warm[name] != cold[name] || warm[name] == 0 {
			t.Errorf("%s: warm %v, cold %v; want equal and non-zero", name, warm[name], cold[name])
		}
	}
	if f := warm["buffer.page_faults_per_op"]; f != 0 {
		t.Errorf("embed_warm faulted %v pages per op; want 0", f)
	}
	if f := cold["buffer.page_faults_per_op"]; f == 0 {
		t.Errorf("embed_cold never faulted")
	}
}

// TestCorruptDigestFails proves the correctness gate bites: one corrupted
// expected digest must surface as failed operations.
func TestCorruptDigestFails(t *testing.T) {
	env, err := newEnvironment(context.Background(), "", "", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	res, err := runWorkload(runConfig{workload: wEmbedWarm, seed: 1, seconds: 0.1, scale: 0.02, corrupt: true, env: env})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatal("a corrupted expected digest went unnoticed")
	}
}

// TestCompareVerdicts pins the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	mk := func(thr []float64) report {
		r := report{Workloads: map[string]workloadReport{}}
		for _, ws := range workloadSpecs {
			wr := workloadReport{EndToEnd: map[string]series{}, PerLayer: map[string]metricUnit{}}
			for _, m := range endToEndSpecs {
				wr.EndToEnd[m.Name] = newSeries(m.Unit, []float64{10, 10.1, 10.2})
			}
			wr.EndToEnd["throughput_ops"] = newSeries("1/s", thr)
			r.Workloads[ws.Name] = wr
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		path := filepath.Join(dir, name)
		b, _ := json.Marshal(r)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk([]float64{100, 101, 102}))
	for _, tc := range []struct {
		name  string
		thr   []float64
		worse bool
	}{
		{"same", []float64{99, 100, 101}, false},
		{"worse", []float64{50, 50.5, 51}, true},
		{"unresolved", []float64{40, 100, 160}, false},
	} {
		var out bytes.Buffer
		worse, err := compareReports(&out, base, write(tc.name+".json", mk(tc.thr)))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse = %v, want %v", tc.name, worse, tc.worse)
		}
		if !strings.Contains(out.String(), tc.name) {
			t.Errorf("%s: verdict %q not printed", tc.name, tc.name)
		}
	}
}

// TestHistQuantile pins the two regimes of the histogram quantile: plain
// interpolation inside a bucket, and the sum-informed spread inside the
// lowest one.
func TestHistQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	// 100 waits of 20 us each: all in the lowest bucket, median near 20 us.
	if got := histQuantile(bounds, []int64{100, 0, 0, 0}, 100*20e-6, 0.5); got < 15e-6 || got > 25e-6 {
		t.Errorf("uncontended median = %v s, want about 20 us", got)
	}
	// Half the waits between 1 and 10 ms: p75 is the middle of that bucket.
	if got := histQuantile(bounds, []int64{50, 50, 0, 0}, 50*20e-6+50*0.0055, 0.75); got < 0.005 || got > 0.006 {
		t.Errorf("p75 = %v s, want 0.0055", got)
	}
}
