// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 5). Each experiment has a typed
// driver returning structured rows plus a printer that emits the same
// rows/series the paper reports. The cmd/rcjbench CLI and the repository's
// bench_test.go both drive this package.
//
// Experiments accept a Scale factor: cardinalities are Scale × the paper's,
// so full sweeps finish quickly at Scale 0.1 while Scale 1 reruns the paper
// verbatim. Distance parameters that interact with point density (the ε
// sweep of Figure 10) are corrected by the density factor √(1/Scale) so the
// curves keep their shape.
package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies every dataset cardinality (default 1.0 = paper
	// scale).
	Scale float64
	// BufferFrac sizes the shared LRU buffer as a fraction of the summed
	// tree sizes in pages (default 0.01, the paper's 1%).
	BufferFrac float64
	// PageSize is the index page size in bytes (default 1024, as in the
	// paper).
	PageSize int
	// W receives the printed tables; nil discards them.
	W io.Writer
	// Ctx, when non-nil, cancels in-flight joins of long experiment sweeps
	// (cmd/rcjbench wires Ctrl-C through it). Nil means run to completion.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.BufferFrac <= 0 {
		c.BufferFrac = 0.01
	}
	if c.PageSize <= 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.W == nil {
		c.W = io.Discard
	}
	return c
}

// scaled returns the scaled cardinality, at least 1.
func (c Config) scaled(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Env is a prepared join environment: two bulk-loaded R*-trees sharing one
// buffer pool sized per the experiment's buffer fraction, with counters
// reset so only the join itself is measured.
type Env struct {
	Pool *buffer.Pool
	TQ   *rtree.Tree // outer input Q
	TP   *rtree.Tree // inner input P
	// Ctx cancels this environment's runs; nil means context.Background().
	Ctx context.Context
}

// ctx returns the environment's run context.
func (e *Env) ctx() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// NewEnv indexes qs and ps and sizes the shared buffer to bufferFrac of the
// summed tree sizes.
func NewEnv(qs, ps []rtree.PointEntry, bufferFrac float64, pageSize int) (*Env, error) {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	// Build with an unbounded pool so construction cost never depends on
	// the experiment's buffer size; shrink afterwards.
	pool := buffer.NewPool(-1)
	tq, err := buildTree(qs, pool, 1, pageSize)
	if err != nil {
		return nil, fmt.Errorf("exp: build TQ: %w", err)
	}
	tp, err := buildTree(ps, pool, 2, pageSize)
	if err != nil {
		return nil, fmt.Errorf("exp: build TP: %w", err)
	}
	env := &Env{Pool: pool, TQ: tq, TP: tp}
	env.SetBufferFrac(bufferFrac)
	return env, nil
}

func buildTree(pts []rtree.PointEntry, pool *buffer.Pool, owner uint32, pageSize int) (*rtree.Tree, error) {
	pager := storage.NewMemPager(pageSize)
	t, err := rtree.New(pager, pool, rtree.Config{Owner: owner, PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	if err := t.BulkLoad(pts, 0); err != nil {
		return nil, err
	}
	return t, nil
}

// TotalPages returns the summed size of both trees in pages.
func (e *Env) TotalPages() int {
	return e.TQ.NumPages() + e.TP.NumPages()
}

// SetBufferFrac resizes the shared buffer to the given fraction of the
// summed tree sizes (minimum one page) and clears it.
func (e *Env) SetBufferFrac(frac float64) {
	pages := int(frac * float64(e.TotalPages()))
	if pages < 1 {
		pages = 1
	}
	e.Pool.Resize(pages)
	e.Reset()
}

// Reset empties the buffer and zeroes its counters, giving the next
// measured run a cold cache.
func (e *Env) Reset() {
	e.Pool.Clear()
	e.Pool.ResetStats()
}

// RunResult is one measured algorithm execution.
type RunResult struct {
	Algorithm core.Algorithm
	Stats     core.Stats
	Cost      cost.Breakdown
}

// Run executes the join with a cold cache and measures it. The run aborts
// with the context's error when Env.Ctx is cancelled.
func (e *Env) Run(opts core.Options) (RunResult, error) {
	e.Reset()
	meter := cost.NewMeter(e.Pool)
	_, stats, err := core.JoinContext(e.ctx(), e.TQ, e.TP, opts)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Algorithm: opts.Algorithm, Stats: stats, Cost: meter.Stop()}, nil
}

// RunCollect executes the join with a cold cache, returning the pairs too.
func (e *Env) RunCollect(opts core.Options) ([]core.Pair, RunResult, error) {
	opts.Collect = true
	e.Reset()
	meter := cost.NewMeter(e.Pool)
	pairs, stats, err := core.JoinContext(e.ctx(), e.TQ, e.TP, opts)
	if err != nil {
		return nil, RunResult{}, err
	}
	return pairs, RunResult{Algorithm: opts.Algorithm, Stats: stats, Cost: meter.Stop()}, nil
}

// Combo names one of the paper's join combinations (Table 3): the outer
// dataset Q and the inner dataset P.
type Combo struct {
	Name string
	Q, P workload.RealDataset
}

// Combos are the four join combinations of Table 3.
var Combos = []Combo{
	{Name: "SP", Q: workload.SC, P: workload.PP},
	{Name: "LP", Q: workload.LO, P: workload.PP},
	{Name: "SP'", Q: workload.PP, P: workload.SC},
	{Name: "LP'", Q: workload.PP, P: workload.LO},
}

// ComboByName returns the named combination.
func ComboByName(name string) (Combo, bool) {
	for _, c := range Combos {
		if c.Name == name {
			return c, true
		}
	}
	return Combo{}, false
}

// NewComboEnv builds the environment for one real-data join combination at
// the configured scale, carrying the config's cancellation context.
func (c Config) NewComboEnv(cb Combo) (*Env, error) {
	qs := workload.RealLike(cb.Q, c.scaled(cb.Q.Cardinality()))
	ps := workload.RealLike(cb.P, c.scaled(cb.P.Cardinality()))
	env, err := NewEnv(qs, ps, c.BufferFrac, c.PageSize)
	if err != nil {
		return nil, err
	}
	env.Ctx = c.Ctx
	return env, nil
}

// newEnv builds an environment from prepared entry slices with the config's
// buffer sizing and cancellation context.
func (c Config) newEnv(qs, ps []rtree.PointEntry) (*Env, error) {
	env, err := NewEnv(qs, ps, c.BufferFrac, c.PageSize)
	if err != nil {
		return nil, err
	}
	env.Ctx = c.Ctx
	return env, nil
}

// fmtDuration renders a duration in seconds with millisecond resolution,
// matching the paper's time axes.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
