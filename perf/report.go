package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// A report is what `perf -out` writes and `perf -compare` reads: every
// workload's end-to-end metrics over the run's repetitions, and the
// per-layer metrics of one traced run. perf/BASELINE.json is a report.

type report struct {
	Header    reportHeader              `json:"header"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type reportHeader struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
}

type workloadReport struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]series     `json:"end_to_end"`
	PerLayer  map[string]metricUnit `json:"per_layer"`
}

// series is one end-to-end metric over the repetitions: the values as
// measured, their median and quartiles.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type metricUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newSeries(unit string, values []float64) series {
	q1, q3 := quartiles(values)
	return series{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s series) spread() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	return ratio(s.Q3-s.Q1, s.Median)
}

// commit names the measured source: the git commit when the checkout is a
// repository, "unknown" otherwise (the benchmark driver's checkout is not).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runReport runs every workload — reps times with tracing off, once traced
// — checks every answer, prints every metric by name with its unit, and
// writes the report to out when set. It returns the process exit code.
func runReport(cfg runConfig, reps int, out string) int {
	rep := report{
		Header: reportHeader{
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Commit: commit(cfg.env.root), Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Reps: reps,
		},
		Workloads: map[string]workloadReport{},
	}
	code := 0
	for _, spec := range workloadSpecs {
		cfg.workload = spec.Name
		wr := workloadReport{EndToEnd: map[string]series{}, PerLayer: map[string]metricUnit{}}
		values := map[string][]float64{}
		for r := 0; r < reps; r++ {
			cfg.trace = false
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perf:", err)
				return 1
			}
			wr.Attempted += res.attempted
			wr.Failed += res.failed
			printMetrics(os.Stderr, spec.Name, res.metrics)
			for name, v := range res.metrics {
				values[name] = append(values[name], v)
			}
		}
		cfg.trace = true
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		for _, m := range endToEndSpecs {
			s := newSeries(m.Unit, values[m.Name])
			wr.EndToEnd[m.Name] = s
			fmt.Printf("%-14s %-32s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", spec.Name, m.Name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Values))
		}
		fmt.Printf("%-14s %-32s %14.6g\n", spec.Name, "failed_ops_share", ratio(float64(wr.Failed), float64(wr.Attempted)))
		for _, m := range perLayerSpecs {
			wr.PerLayer[m.Name] = metricUnit{Value: res.metrics[m.Name], Unit: m.Unit}
			fmt.Printf("%-14s %-32s %14.6g %s\n", spec.Name, m.Name, res.metrics[m.Name], m.Unit)
		}
		if wr.Failed > 0 {
			fmt.Fprintf(os.Stderr, "perf: %s: %d of %d operations failed\n", spec.Name, wr.Failed, wr.Attempted)
			code = 1
		}
		rep.Workloads[spec.Name] = wr
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
	}
	return code
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// exactCounts are the traced run's counts that must repeat bit for bit
// between two runs of the same code on the same seed.
var exactCounts = []string{"rtree.node_accesses_per_op", "buffer.page_faults_per_op", "core.candidates_per_op", "router.subqueries_per_op"}

// compareReports prints, per workload and end-to-end metric, both medians
// and quartiles, the bound, and a verdict: "worse" when B's median is worse
// than A's by more than the bound, "unresolved" when either side's spread
// is wider than the bound (the runs cannot tell), "same" otherwise. It
// reports whether any pairing was worse.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s seed %d scale %g reps %d %s\n", pathA, a.Header.Commit, a.Header.Seed, a.Header.Scale, a.Header.Reps, a.Header.Go)
	fmt.Fprintf(w, "B: %s  commit %s seed %d scale %g reps %d %s\n", pathB, b.Header.Commit, b.Header.Seed, b.Header.Scale, b.Header.Reps, b.Header.Go)
	fmt.Fprintf(w, "%-14s %-20s %12s %25s %12s %25s %6s  %s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound", "verdict")
	anyWorse := false
	for _, ws := range workloadSpecs {
		wa, okA := a.Workloads[ws.Name]
		wb, okB := b.Workloads[ws.Name]
		if !okA || !okB {
			return false, fmt.Errorf("workload %s missing from a report", ws.Name)
		}
		for _, m := range endToEndSpecs {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			verdict := "same"
			worse := sb.Median > sa.Median*(1+m.Bound)
			if m.Better == "higher" {
				worse = sb.Median < sa.Median*(1-m.Bound)
			}
			switch {
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				verdict = "unresolved"
			case worse:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-20s %12.5g %25s %12.5g %25s %6.2f  %s\n", ws.Name, m.Name,
				sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3), sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3), m.Bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: A %d of %d, B %d of %d\n", ws.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			anyWorse = anyWorse || wb.Failed > wa.Failed
		}
		for _, name := range exactCounts {
			va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value
			state := "identical"
			if va != vb {
				state = "DIFFERS"
			}
			fmt.Fprintf(w, "%-14s %-32s %14.6g %14.6g  %s\n", ws.Name, name, va, vb, state)
		}
	}
	return anyWorse, nil
}
