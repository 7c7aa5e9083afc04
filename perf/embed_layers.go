package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"repro/internal/buffer"
	"repro/internal/cost"
	"repro/internal/storage"
)

// layers is the traced run of the embedded workloads: one fresh pass of the
// schedule, sequential, Parallelism forced to 1 so counts repeat exactly,
// executed at four depths, each on a stack of its own:
//
//	U  Engine.Run drained, untraced                (the reference time)
//	E  Engine.Run drained, again                   (stats, allocations)
//	W  core.JoinContext over timing wrappers       (core/rtree/storage spans)
//	P  core.JoinContext over the bare twin of W    (prices the wrappers)
//
// The ledger is rcj.self (E - P) + the self times of W's spans; what U took
// beyond it is the residual. Every stack sees the pass once untimed first,
// so each timed pass starts from the state the same pass left behind: the
// access and fault sequences of all four are identical. The depths take
// turns operation by operation — a slow second of the box then slows all
// four alike instead of landing in one layer's self time.
func (e *embed) layers(ctx context.Context, loaded phase, m map[string]float64) error {
	ops := e.tracedPass()
	n := float64(len(ops))

	// U runs on engines of its own: on E's, the second run of a query would
	// find the pages the first one left in the pool.
	other := &embed{cfg: e.cfg, sz: e.sz, cold: e.cold, names: e.names, files: e.files, pages: e.pages}
	if err := other.openEngines(); err != nil {
		return err
	}
	defer closeAll(other.ix)
	backend := storage.BackendMem
	if e.cold {
		backend = storage.BackendFile
	}
	var groups [][]string
	for r := range e.engs {
		groups = append(groups, e.replicaNames(r))
	}
	tr := newTracer()
	tr.suspend(true)
	wstack, err := openCoreStack(e.files, groups, backend, e.poolPages(), 1, tr)
	if err != nil {
		return err
	}
	defer wstack.close()
	pstack, err := openCoreStack(e.files, groups, backend, e.poolPages(), 1, nil)
	if err != nil {
		return err
	}
	defer pstack.close()

	runs := make([]engineRun, len(ops))
	var mallocs, allocBytes uint64 // over E's runs, untimed pass included
	engine := func(x *embed, keep bool) func(int, op) (float64, error) {
		return func(i int, o op) (float64, error) {
			var before, after runtime.MemStats
			if keep {
				runtime.ReadMemStats(&before)
			}
			r, err := drainEngine(ctx, x.engs[o.rep], x.ix, o, 1)
			if err == nil && r.d != e.ref.expect(o) {
				err = fmt.Errorf("traced %s query %d: wrong answer", o.class, o.key)
			}
			if keep {
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				allocBytes += after.TotalAlloc - before.TotalAlloc
				runs[i] = r
			}
			return r.ms, err
		}
	}
	coreRun := func(cs *coreStack) func(int, op) (float64, error) {
		return func(i int, o op) (float64, error) {
			tr.setOp(i + 1)
			ms, d, _, err := cs.run(ctx, o, runs[i].dec, false)
			if err == nil && d != e.ref.expect(o) {
				err = fmt.Errorf("traced %s query %d at core level: wrong answer", o.class, o.key)
			}
			return ms, err
		}
	}
	depths := []func(int, op) (float64, error){engine(other, false), engine(e, true), coreRun(wstack), coreRun(pstack)}

	// The paper's cost meter rides along on the bare stack: faults x 10 ms.
	var (
		pool0  buffer.Stats
		meters []*cost.Meter
	)
	times, err := interleavedPasses(ops, depths, func() {
		tr.suspend(false)
		pool0 = e.bufferStats()
		for _, pool := range pstack.pools {
			meters = append(meters, cost.NewMeter(pool))
		}
	})
	if err != nil {
		return err
	}
	pool1 := e.bufferStats()
	var modelledMS float64
	for _, meter := range meters {
		modelledMS += meter.Stop().IOTime.Seconds() * 1e3 / tracedReps
	}
	u, en, w, p := times[0], times[1], times[2], times[3]
	led := tr.account().perPass(tracedReps)
	if e.cfg.traceOut != "" {
		if err := tr.write(e.cfg.traceOut); err != nil {
			return err
		}
	}

	// Filter/verify split: the unconstrained joins again without the
	// verification step.
	var filterMS, fullMS, splitOps float64
	for i, o := range ops {
		if o.class != classFull && o.class != classSelf {
			continue
		}
		ms, _, _, err := pstack.run(ctx, o, runs[i].dec, true)
		if err != nil {
			return err
		}
		filterMS += ms
		fullMS += p[i]
		splitOps++
	}

	st := sumStats(runs)
	if got := int64(led.count[spanReadNode]); got != st.NodeAccesses {
		return fmt.Errorf("traced pass made %d node accesses, the engine reported %d: the timing index does not read what the R-tree reads", got, st.NodeAccesses)
	}

	m["core.self_ms_per_op"] = led.self[spanCore] / n
	m["core.filter_ms_per_op"] = ratio(filterMS, splitOps)
	m["core.verify_ms_per_op"] = ratio(fullMS-filterMS, splitOps)
	m["core.candidates_per_op"] = float64(st.Candidates) / n
	m["core.results_per_op"] = float64(st.Results) / n
	m["core.candidate_precision"] = ratio(float64(st.Results), float64(st.Candidates))
	m["core.nodes_pruned_per_op"] = float64(st.NodesPruned) / n
	m["core.bound_killed_per_op"] = float64(st.BoundKilledCandidates) / n

	m["rtree.node_accesses_per_op"] = float64(st.NodeAccesses) / n
	m["rtree.read_node_self_us"] = ratio(led.self[spanReadNode]*1e3, float64(led.count[spanReadNode]))
	m["rtree.build_s"] = e.buildS

	m["buffer.page_faults_per_op"] = float64(st.PageFaults) / n
	m["buffer.hit_ratio"] = 1 - ratio(float64(st.PageFaults), float64(st.NodeAccesses))
	m["buffer.evictions_per_op"] = float64(pool1.Evictions-pool0.Evictions) / tracedReps / n
	m["buffer.load_wait_ms_per_op"] = float64(pool1.LoadNanos-pool0.LoadNanos) / 1e6 / tracedReps / n
	m["cost.modelled_io_ms_per_op"] = modelledMS / n

	m["storage.read_page_us"] = ratio(led.total[spanReadPage]*1e3, float64(led.count[spanReadPage]))
	m["storage.read_ms_per_op"] = led.total[spanReadPage] / n
	m["storage.pages_read_per_op"] = float64(led.count[spanReadPage]) / n
	m["storage.open_ms"] = e.openMS
	points := 0
	for _, s := range e.sets {
		points += len(s)
	}
	m["storage.bytes_per_point"] = ratio(float64(e.bytes), float64(points))

	m["plan.resolve_us"] = microResolve(ops, e.ix)
	m["rcj.self_ms_per_op"] = pairedDiff(en, p) / n
	m["rcj.allocs_per_op"] = float64(mallocs) / (tracedReps + 1) / n
	m["rcj.alloc_kb_per_op"] = float64(allocBytes) / 1024 / (tracedReps + 1) / n

	m["proc.cpu_ms_per_op"] = ratio(e.loadCPU*1e3, float64(len(loaded.samples)))
	m["proc.peak_rss_mb"] = peakRSSMB(os.Getpid())

	fmt.Fprintf(logw, "perf: traced pass of %d ops: U %.1f ms, E %.1f, W %.1f, P %.1f\n", len(ops), sum(u), sum(en), sum(w), sum(p))
	ledgerMS := sum(w) + pairedDiff(en, p)
	m["trace.residual_share"] = ratio(sum(u)-ledgerMS, sum(u))
	m["trace.overhead_share"] = ratio(sum(w), sum(p)) - 1

	return microDecode(e.files[e.names[len(e.names)-1]], m)
}

// bufferStats sums the engines' pool counters.
func (e *embed) bufferStats() buffer.Stats {
	var s buffer.Stats
	for _, eng := range e.engs {
		ps := eng.BufferStats()
		s.Evictions += ps.Evictions
		s.LoadNanos += ps.LoadNanos
	}
	return s
}
