package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// corpusSeed draws the corpus: the datasets the system holds and what can be
// asked of it (window positions, their popularity, the insert stream).
// --seed draws the schedule run against the corpus: which request comes next,
// what a batch deletes, where in its cycle of passes a run starts and in
// which order a pass runs. The corpus does not follow --seed: ten cluster
// centres land differently under every seed — on a shard cut or off it,
// overlapping or apart — and the same code then runs a third faster or slower
// (serve_sharded, seeds 1 to 10: 61 to 96 operations/s), which a run-to-run
// comparison can only read as noise.
const corpusSeed = 1

// runConfig is one benchmark invocation: one workload, one seed.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	traceOut string
	// corrupt flips one expected digest, to prove that a wrong answer makes
	// the command fail.
	corrupt bool
	env     *environment
}

// sample is one completed (or failed) operation of a timed phase.
type sample struct {
	class string
	ms    float64 // send to last byte / iterator exhausted
	first float64 // send to first result row; < 0 when the op has none to report
	at    float64 // completion time, seconds since the phase started
	group int     // the pass (embedded) or time slice (serving) it belongs to
	fail  bool
	par   int     // parallelism the plan resolved to
	est   float64 // planner's est_accesses over measured node accesses; 0 = unknown
	bytes int     // response body bytes (serving workloads)
}

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	wall    float64 // seconds
	sliced  bool    // groups are time slices, not passes
}

// result is what one invocation reports.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

// sliceSeconds is the length of the time slices a serving phase is cut
// into.
const sliceSeconds = 2.0

// endToEnd derives the user-visible metrics of a timed phase. Every metric
// is computed per group — a pass of the schedule for the embedded workloads,
// a slice of sliceSeconds for the serving ones — and the median over the
// groups is reported. The box this runs on loses a third of its speed for a
// second or two at a time, several times a minute; a percentile pooled over
// the phase moves with every such spell (the 95th most of all: the slowed
// operations are the tail), while the median over groups does not move until
// half of the groups are hit.
func (ph phase) endToEnd(setupS float64) map[string]float64 {
	type group struct {
		from, to   float64
		lat, first []float64
	}
	groups := map[int]*group{}
	for _, s := range ph.samples {
		g := groups[s.group]
		if g == nil {
			g = &group{from: s.at - s.ms/1e3}
			groups[s.group] = g
		}
		g.from = min(g.from, s.at-s.ms/1e3)
		g.to = max(g.to, s.at)
		if s.fail {
			continue
		}
		g.lat = append(g.lat, s.ms)
		if s.first >= 0 {
			g.first = append(g.first, s.first)
		}
	}
	// A slice lasts sliceSeconds whatever completed in it; the last, partial
	// one is left out, unless the phase is shorter than one slice (the smoke
	// test's), which is then a single group as long as the phase.
	whole := int(ph.wall / sliceSeconds)
	var thr, p50, p95, first []float64
	for id, g := range groups {
		dur := g.to - g.from
		if ph.sliced && whole > 0 {
			if id >= whole {
				continue
			}
			dur = sliceSeconds
		}
		if len(g.lat) == 0 || dur <= 0 {
			continue
		}
		thr = append(thr, float64(len(g.lat))/dur)
		p50 = append(p50, percentile(g.lat, 0.50))
		p95 = append(p95, percentile(g.lat, 0.95))
		if len(g.first) > 0 {
			first = append(first, median(g.first))
		}
	}
	return map[string]float64{
		"throughput_ops":    median(thr),
		"latency_p50_ms":    median(p50),
		"latency_p95_ms":    median(p95),
		"first_pair_p50_ms": median(first),
		"setup_s":           setupS,
	}
}

func (ph phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.fail {
			n++
		}
	}
	return n
}

// classMetrics fills the per-class medians, the informational tail and the
// planner shares that come from a loaded phase.
func (ph phase) classMetrics(m map[string]float64) {
	by := map[string][]float64{}
	var all, est []float64
	par := 0
	for _, s := range ph.samples {
		if s.fail {
			continue
		}
		by[s.class] = append(by[s.class], s.ms)
		all = append(all, s.ms)
		if s.par > 1 {
			par++
		}
		if s.est > 0 {
			est = append(est, s.est)
		}
	}
	for _, c := range classes {
		m["class."+c+"_p50_ms"] = median(by[c])
	}
	m["tail.latency_p99_ms"] = percentile(all, 0.99)
	m["tail.ops_total"] = float64(len(all))
	m["plan.parallel_share"] = ratio(float64(par), float64(len(all)))
	m["plan.est_over_actual_p50"] = median(est)
}

// shape is what every workload implements: set the system up from
// scratch, drive it under load, and take it down.
type shape interface {
	// setup builds data, indexes and (for serving shapes) processes, and
	// runs the warm-up pass. It is timed as setup_s.
	setup(ctx context.Context) error
	// prepare computes the reference answers, by forced-OBJ RunCollect or
	// (brute) by the index-free brute force; not part of setup_s (it is the
	// benchmark's work, not the system's).
	prepare(brute bool) error
	// load drives the closed-loop clients for about the given time and
	// checks every answer.
	load(ctx context.Context, seconds float64) (phase, error)
	// checkPass sends one sequential pass and fails on the first answer
	// that differs from the reference.
	checkPass(ctx context.Context) error
	// layers makes the traced run and fills the per-layer metrics.
	layers(ctx context.Context, loaded phase, m map[string]float64) error
	close()
}

// A run sets the system up from scratch several times; the median is
// reported as setup_s and the last one is measured. Three times, and on
// until setupSeconds of set-up have been timed or maxSetupReps is reached:
// a set-up of a few hundred milliseconds (serve_live) is mostly process
// start and warm-up, and three of those say little.
const (
	minSetupReps = 3
	maxSetupReps = 7
	setupSeconds = 2.5
)

// runWorkload is one invocation of the benchmark contract.
func runWorkload(cfg runConfig) (result, error) {
	// The guard: a workload that takes three times its sized time is
	// aborted and every operation counted failed.
	budget := time.Duration((3*cfg.seconds + 90) * float64(time.Second))
	ctx, cancel := context.WithTimeout(cfg.env.ctx, budget)
	defer cancel()

	// Compilation is not set-up: the daemons are built before the clock of
	// the first set-up starts.
	if _, err := cfg.env.daemons(); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.env.workDir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	var (
		w      shape
		setups []float64
	)
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && sum(setups) < setupSeconds); rep++ {
		if w != nil {
			w.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("s%d", rep))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return result{}, err
		}
		w, err = newWorkload(cfg, sub, sizesFor(cfg.workload, cfg.scale))
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	t0 := time.Now()
	if err := w.prepare(false); err != nil {
		return result{}, fmt.Errorf("%s: reference: %w", cfg.workload, err)
	}
	if err := oracleLeg(ctx, cfg, filepath.Join(dir, "oracle")); err != nil {
		return result{}, fmt.Errorf("%s: oracle leg: %w", cfg.workload, err)
	}
	fmt.Fprintf(logw, "perf: %s: %d set-ups %.1f s, reference answers and oracle leg %.1f s\n", cfg.workload, len(setups), sum(setups), time.Since(t0).Seconds())

	seconds := cfg.seconds
	if cfg.trace {
		// The traced invocation spends part of its time under load (for the
		// counters only a loaded system shows: queue wait, cache hits,
		// compactions) and the rest in the sequential traced passes.
		seconds = math.Max(1, cfg.seconds*0.4)
	}
	ph, err := w.load(ctx, seconds)
	if err != nil {
		return result{}, fmt.Errorf("%s: load: %w", cfg.workload, err)
	}
	res := result{attempted: len(ph.samples), failed: ph.failed()}
	if ctx.Err() != nil {
		res.failed = res.attempted
	}
	if res.attempted == 0 {
		return result{}, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	if !cfg.trace {
		res.metrics = ph.endToEnd(median(setups))
		return res, nil
	}
	res.metrics = map[string]float64{}
	for _, spec := range perLayerSpecs {
		res.metrics[spec.Name] = 0
	}
	ph.classMetrics(res.metrics)
	if err := w.layers(ctx, ph, res.metrics); err != nil {
		return result{}, fmt.Errorf("%s: traced run: %w", cfg.workload, err)
	}
	// Unit costs do not depend on the workload; every traced run prices them.
	microGeom(cfg.seed, res.metrics)
	microEncode(cfg.seed, res.metrics)
	return res, nil
}

func newWorkload(cfg runConfig, dir string, sz sizes) (shape, error) {
	switch cfg.workload {
	case wEmbedWarm:
		return newEmbed(cfg, dir, sz, false), nil
	case wEmbedCold:
		return newEmbed(cfg, dir, sz, true), nil
	case wServeSharded:
		return newSharded(cfg, dir, sz), nil
	case wServeLive:
		return newLive(cfg, dir, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// oracleLeg pushes a 300-point dataset and every query class through the
// workload's own path (same set-up code, same client) and compares each
// answer with core.BruteForcePairs filtered by Query.Matches and truncated
// for TopK.
func oracleLeg(ctx context.Context, cfg runConfig, dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(cfg, dir, oracleSizes())
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return err
	}
	if err := w.prepare(true); err != nil {
		return err
	}
	return w.checkPass(ctx)
}
