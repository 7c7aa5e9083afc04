// Command perf is the repository's benchmark: four serving shapes of the
// ring-constrained join measured end to end, plus a traced run that splits
// the same work into a per-layer ledger, all from outside the program under
// test. See README.md in this directory.
//
// One workload, as the benchmark driver runs it (through run.sh, which
// builds this command):
//
//	perf --workload embed_cold --seed 1 --seconds 20 --trace 0
//
// Every workload, every metric, written as a report for -compare:
//
//	perf -reps 3 -out report.json
//	perf -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// logw is where progress and failure details go; the contract's result line
// is the only thing written to standard output.
var logw io.Writer = os.Stderr

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the contract's result line (default: run all, print a report)")
		seed         = flag.Int64("seed", 1, "seed of the schedule: which requests are drawn from the corpus, in which order")
		seconds      = flag.Float64("seconds", runSeconds, "how long one timed phase measures")
		trace        = flag.Int("trace", 0, "1: make the traced run and report per-layer metrics; 0: end-to-end metrics")
		scale        = flag.Float64("scale", 1, "shrink datasets and schedules (smoke test)")
		reps         = flag.Int("reps", 1, "report mode: untraced repetitions per workload")
		out          = flag.String("out", "", "report mode: write the report here")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans here (JSON lines)")
		compare      = flag.Bool("compare", false, "compare two reports: perf -compare A.json B.json")
		emitSpec     = flag.Bool("emit-spec", false, "print BENCHMARK.json and exit")
		corrupt      = flag.Bool("corrupt-digest", false, "corrupt one expected digest (the command must then fail)")
		root         = flag.String("root", "", "repository root (default: found from the working directory)")
		binDir       = flag.String("bin", "", "directory holding rcjd and rcjrouter (default: built into the work directory)")
		workDir      = flag.String("work", "", "scratch directory, removed on exit (default: .bench_build/work under the root)")
	)
	flag.Parse()

	if *emitSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(benchmarkSpec())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: perf -compare A.json B.json")
			return 2
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := newEnvironment(ctx, *root, *binDir, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	defer env.cleanup()

	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale,
		traceOut: *traceOut, corrupt: *corrupt, env: env,
	}
	if *workloadName != "" {
		cfg.workload = *workloadName
		return runOne(cfg)
	}
	return runReport(cfg, *reps, *out)
}

// contractLine is the last line of standard output in single-workload mode.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(cfg runConfig) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	printMetrics(os.Stderr, cfg.workload, res.metrics)
	line := contractLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for name, v := range res.metrics {
		line.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perf: %s: %d of %d operations failed\n", cfg.workload, res.failed, res.attempted)
		return 1
	}
	return 0
}

func printMetrics(w *os.File, workload string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-14s %-32s %14.6g %s\n", workload, name, m[name], unitOf(name))
	}
}

// environment is what one process of the benchmark shares between runs: the
// repository root, the built daemons, and a scratch directory inside the
// checkout that is removed on exit.
type environment struct {
	ctx     context.Context
	root    string
	binDir  string
	workDir string
}

func newEnvironment(ctx context.Context, root, binDir, workDir string) (*environment, error) {
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return nil, err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base := workDir
	if base == "" {
		base = filepath.Join(root, ".bench_build", "work")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	// One directory per process, so concurrent invocations never share files.
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &environment{ctx: ctx, root: root, binDir: binDir, workDir: dir}, nil
}

func (e *environment) cleanup() {
	os.RemoveAll(e.workDir)
}

// findRoot walks up from the working directory to the module the benchmark
// measures (the directory whose go.mod declares module repro).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if line, _, _ := strings.Cut(string(b), "\n"); err == nil && strings.TrimSpace(line) == "module repro" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root not found: run from inside the repository or pass -root")
		}
		dir = parent
	}
}
