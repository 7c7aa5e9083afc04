package main

// The benchmark's schema: workloads, end-to-end metrics (with the share of
// the parent's median by which each may worsen) and per-layer metrics.
// BENCHMARK.json at the repository root is `perf -emit-spec` of these
// tables; the smoke test fails when the two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	wEmbedWarm    = "embed_warm"
	wEmbedCold    = "embed_cold"
	wServeSharded = "serve_sharded"
	wServeLive    = "serve_live"
)

var workloadSpecs = []workloadSpec{
	{wEmbedWarm, "in-process Engine.Run, mem backend, unbounded pool: only geom/core/rtree work, so kernel changes show here and pager/cache/encoder/router changes must not"},
	{wEmbedCold, "same calls and schedule from packed files through a 1% LRU pool: same node accesses, ~80% faults, so buffer/storage/pagecodec/decode changes move this workload alone"},
	{wServeSharded, "client -> rcjrouter -> 2 rcjd over loopback, Zipf-popular requests over 4 grid shards: the only shape exercising router, shard pruning, sched queueing, result cache and encode"},
	{wServeLive, "client -> one rcjd with a live index: 2 queries per mutation batch, compactions in the background, every epoch voids the result cache: read cost vs write cost vs compaction"},
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

var endToEndSpecs = []metricSpec{
	{"throughput_ops", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"first_pair_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayerSpecs = []metricSpec{
	{"geom.prunes_rect_ns", "ns", "lower", 0},
	{"geom.prunes_point_ns", "ns", "lower", 0},
	{"geom.circle_covers_ns", "ns", "lower", 0},

	{"core.self_ms_per_op", "ms", "lower", 0},
	{"core.filter_ms_per_op", "ms", "lower", 0},
	{"core.verify_ms_per_op", "ms", "lower", 0},
	{"core.candidates_per_op", "count", "lower", 0},
	{"core.results_per_op", "count", "higher", 0},
	{"core.candidate_precision", "ratio", "higher", 0},
	{"core.nodes_pruned_per_op", "count", "higher", 0},
	{"core.bound_killed_per_op", "count", "higher", 0},

	{"rtree.node_accesses_per_op", "count", "lower", 0},
	{"rtree.read_node_self_us", "us", "lower", 0},
	{"rtree.decode_node_ns", "ns", "lower", 0},
	{"rtree.build_s", "s", "lower", 0},

	{"pagecodec.decode_ns_per_page", "ns", "lower", 0},

	{"buffer.page_faults_per_op", "count", "lower", 0},
	{"buffer.hit_ratio", "ratio", "higher", 0},
	{"buffer.evictions_per_op", "count", "lower", 0},
	{"buffer.load_wait_ms_per_op", "ms", "lower", 0},
	{"cost.modelled_io_ms_per_op", "ms", "lower", 0},

	{"storage.read_page_us", "us", "lower", 0},
	{"storage.read_ms_per_op", "ms", "lower", 0},
	{"storage.pages_read_per_op", "count", "lower", 0},
	{"storage.open_ms", "ms", "lower", 0},
	{"storage.bytes_per_point", "B", "lower", 0},

	{"plan.resolve_us", "us", "lower", 0},
	{"plan.parallel_share", "ratio", "higher", 0},
	{"plan.est_over_actual_p50", "ratio", "lower", 0},

	{"rcj.self_ms_per_op", "ms", "lower", 0},
	{"rcj.allocs_per_op", "count", "lower", 0},
	{"rcj.alloc_kb_per_op", "KB", "lower", 0},

	{"sched.self_us_per_op", "us", "lower", 0},
	{"sched.queue_wait_p50_ms", "ms", "lower", 0},
	{"sched.queue_wait_p95_ms", "ms", "lower", 0},
	{"sched.batched_share", "ratio", "higher", 0},
	{"sched.rejected_share", "ratio", "lower", 0},

	{"server.self_ms_per_op", "ms", "lower", 0},
	{"server.encode_ns_per_pair", "ns", "lower", 0},
	{"server.result_cache_hit_ratio", "ratio", "higher", 0},
	{"server.bytes_out_per_op", "B", "lower", 0},

	{"router.self_ms_per_op", "ms", "lower", 0},
	{"router.subqueries_per_op", "count", "lower", 0},
	{"router.shards_pruned_share", "ratio", "higher", 0},
	{"router.slowest_sub_share", "ratio", "lower", 0},
	{"router.dedup_dropped_per_op", "count", "lower", 0},
	{"router.bound_tightenings_per_op", "count", "higher", 0},
	{"router.retries_per_op", "count", "lower", 0},
	{"shard.build_s", "s", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},

	{"live.apply_p50_ms", "ms", "lower", 0},
	{"live.apply_p95_ms", "ms", "lower", 0},
	{"live.apply_us_per_point", "us", "lower", 0},
	{"live.read_ms_per_op", "ms", "lower", 0},
	{"live.compactions_per_run", "count", "lower", 0},
	{"live.compact_s_total", "s", "lower", 0},
	{"live.delta_points_max", "count", "lower", 0},
	{"live.query_overhead_ratio", "ratio", "lower", 0},

	{"loopback.ms_per_op", "ms", "lower", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"class.full_p50_ms", "ms", "lower", 0},
	{"class.self_p50_ms", "ms", "lower", 0},
	{"class.topk_p50_ms", "ms", "lower", 0},
	{"class.window_p50_ms", "ms", "lower", 0},
	{"class.maxd_p50_ms", "ms", "lower", 0},
	{"class.write_p50_ms", "ms", "lower", 0},
	{"tail.latency_p99_ms", "ms", "lower", 0},
	{"tail.ops_total", "count", "higher", 0},
	{"trace.residual_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

// perLayerSpec is metricSpec without the bound key, which the contract does
// not allow on per-layer metrics.
type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	pl := make([]perLayerSpec, len(perLayerSpecs))
	for i, m := range perLayerSpecs {
		pl[i] = perLayerSpec{m.Name, m.Unit, m.Better}
	}
	return benchmarkFile{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   pl,
	}
}

func unitOf(name string) string {
	for _, m := range endToEndSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
