package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// Series is one row of a daemon's /metrics, declared once and rendered in
// both encodings: as the leaf at the dotted path JSON of the JSON document,
// and as the Prometheus family Prom. The dynamic type of Value is the row
// kind — a scalar (int, int64, float64, or a bool that Prometheus reads as
// 0/1), a counter family map[string]int64 labeled by Label, or a
// sched.HistogramSnapshot.
type Series struct {
	JSON, Prom string
	Type       string // "counter" or "gauge"; a histogram is its own type
	Help       string
	Value      any
	Label      string
}

// WriteMetrics answers a GET /metrics from rows: the Prometheus text
// exposition (version 0.0.4) when the request asks for it with ?format=prom
// or an Accept header naming text/plain, the JSON document otherwise.
func WriteMetrics(w http.ResponseWriter, r *http.Request, rows []Series) {
	format := r.URL.Query().Get("format")
	if format == "prom" || (format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, row := range rows {
			row.writeProm(w)
		}
		return
	}
	doc := map[string]any{}
	for _, row := range rows {
		at := doc
		path := strings.Split(row.JSON, ".")
		for _, key := range path[:len(path)-1] {
			next, ok := at[key].(map[string]any)
			if !ok {
				next = map[string]any{}
				at[key] = next
			}
			at = next
		}
		at[path[len(path)-1]] = row.Value
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

func (s Series) writeProm(w http.ResponseWriter) {
	typ := s.Type
	if _, ok := s.Value.(sched.HistogramSnapshot); ok {
		typ = "histogram"
	}
	// The help text names the series' JSON twin, so either encoding leads to
	// the other (and TestMetricsParity can hold them to the same set).
	fmt.Fprintf(w, "# HELP %s %s JSON: %s\n# TYPE %s %s\n", s.Prom, s.Help, s.JSON, s.Prom, typ)
	switch v := s.Value.(type) {
	case bool:
		n := 0
		if v {
			n = 1
		}
		fmt.Fprintf(w, "%s %d\n", s.Prom, n)
	case float64:
		fmt.Fprintf(w, "%s %g\n", s.Prom, v)
	case map[string]int64:
		// Keys sorted for a stable exposition.
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", s.Prom, s.Label, k, v[k])
		}
	case sched.HistogramSnapshot:
		// Cumulative le-bucket counts ending at +Inf, then _sum and _count.
		// +Inf and _count derive from the same bucket series as the finite
		// buckets, so the exposition is monotone by construction even if a
		// recording raced the snapshot.
		var cum int64
		for i, bound := range v.BoundsSeconds {
			cum += v.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Prom, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += v.Counts[len(v.BoundsSeconds)]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Prom, cum)
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", s.Prom, v.SumSeconds, s.Prom, cum)
	default: // int, int64
		fmt.Fprintf(w, "%s %d\n", s.Prom, v)
	}
}

// metricRows is everything rcjd publishes: the scheduler snapshot (with
// per-request-exact buffer attribution), the engine's pool-wide stats, the
// remote-transfer and readahead totals, the live-index and result-cache
// counters, per-endpoint request totals and the planner's decisions.
func (s *Server) metricRows() []Series {
	snap := s.sched.Snapshot()
	pool := s.sched.Engine().BufferStats()
	remote, prefetch, remoteIndexes := s.remoteTotals()
	lc := s.liveTotals()
	cache := s.cache.snapshot()
	const counter, gauge = "counter", "gauge"
	return []Series{
		{JSON: "sched.in_flight", Prom: "rcjd_sched_in_flight", Type: gauge, Help: "Joins currently running.", Value: snap.InFlight},
		{JSON: "sched.queued", Prom: "rcjd_sched_queued", Type: gauge, Help: "Requests waiting in the admission queue.", Value: snap.Queued},
		{JSON: "sched.draining", Prom: "rcjd_sched_draining", Type: gauge, Help: "1 once shutdown drain has begun.", Value: snap.Draining},
		{JSON: "sched.admitted", Prom: "rcjd_sched_admitted_total", Type: counter, Help: "Joins admitted past admission control.", Value: snap.Admitted},
		{JSON: "sched.completed", Prom: "rcjd_sched_completed_total", Type: counter, Help: "Joins that streamed to completion.", Value: snap.Completed},
		{JSON: "sched.failed", Prom: "rcjd_sched_failed_total", Type: counter, Help: "Joins that terminated with an error.", Value: snap.Failed},
		{JSON: "sched.rejected_overload", Prom: "rcjd_sched_rejected_overload_total", Type: counter, Help: "Requests rejected with a full queue.", Value: snap.RejectedOverload},
		{JSON: "sched.rejected_queue_timeout", Prom: "rcjd_sched_rejected_queue_timeout_total", Type: counter, Help: "Requests that timed out queued.", Value: snap.RejectedQueueTimeout},
		{JSON: "sched.rejected_draining", Prom: "rcjd_sched_rejected_draining_total", Type: counter, Help: "Requests rejected during drain.", Value: snap.RejectedDraining},
		{JSON: "sched.pairs_emitted", Prom: "rcjd_sched_pairs_emitted_total", Type: counter, Help: "Result pairs streamed to clients.", Value: snap.PairsEmitted},
		// Always 0, and deprecated: traversal batching is gone, but the frozen
		// benchmark decodes this path (perf/client.go); it goes with the next
		// benchmark PR.
		{JSON: "sched.batched_requests", Prom: "rcjd_sched_batched_requests_total", Type: counter, Help: "Always 0: every join runs its own traversal.", Value: 0},
		{JSON: "sched.buffer_accesses", Prom: "rcjd_sched_buffer_accesses_total", Type: counter, Help: "Tagged buffer accesses of served joins.", Value: snap.BufferAccesses},
		{JSON: "sched.buffer_hits", Prom: "rcjd_sched_buffer_hits_total", Type: counter, Help: "Tagged buffer hits of served joins.", Value: snap.BufferHits},
		{JSON: "sched.buffer_misses", Prom: "rcjd_sched_buffer_misses_total", Type: counter, Help: "Tagged buffer misses of served joins.", Value: snap.BufferMisses},
		{JSON: "sched.queue_wait", Prom: "rcjd_sched_queue_wait_seconds", Help: "Admission wait of admitted requests.", Value: snap.QueueWait},
		{JSON: "sched.join_latency", Prom: "rcjd_sched_join_latency_seconds", Help: "Execution time of terminated joins (queue wait excluded).", Value: snap.JoinLatency},

		{JSON: "pool.accesses", Prom: "rcjd_pool_accesses_total", Type: counter, Help: "Shared pool accesses (all owners).", Value: pool.Accesses},
		{JSON: "pool.hits", Prom: "rcjd_pool_hits_total", Type: counter, Help: "Shared pool hits.", Value: pool.Hits},
		{JSON: "pool.misses", Prom: "rcjd_pool_misses_total", Type: counter, Help: "Shared pool misses.", Value: pool.Misses},
		{JSON: "pool.evictions", Prom: "rcjd_pool_evictions_total", Type: counter, Help: "Shared pool evictions.", Value: pool.Evictions},
		{JSON: "pool.prefetch_hits", Prom: "rcjd_pool_prefetch_hits_total", Type: counter, Help: "Pool hits served by async readahead.", Value: pool.PrefetchHits},
		{JSON: "pool.shared_loads", Prom: "rcjd_pool_shared_loads_total", Type: counter, Help: "Demand misses that piggybacked on an in-flight load of the same page.", Value: pool.SharedLoads},
		{JSON: "pool.shards", Prom: "rcjd_pool_shards", Type: gauge, Help: "LRU shards in the shared pool.", Value: s.sched.Engine().BufferShards()},

		// Remote and readahead counters sum over every registered index plus
		// the retired totals of unloaded ones, so they stay monotone.
		{JSON: "remote.indexes", Prom: "rcjd_remote_indexes", Type: gauge, Help: "Registered indexes served over HTTP ranges.", Value: remoteIndexes},
		{JSON: "remote.fetches", Prom: "rcjd_remote_fetches_total", Type: counter, Help: "HTTP range requests issued by remote indexes.", Value: remote.Fetches},
		{JSON: "remote.shared_fetches", Prom: "rcjd_remote_shared_total", Type: counter, Help: "Remote page reads collapsed into another reader's in-flight fetch.", Value: remote.SharedFetches},
		{JSON: "remote.coalesced_fetches", Prom: "rcjd_remote_coalesced_total", Type: counter, Help: "Multi-page range requests replacing per-page fetches.", Value: remote.CoalescedFetches},
		{JSON: "remote.retries", Prom: "rcjd_remote_retries_total", Type: counter, Help: "Remote fetches re-attempted after transient failures.", Value: remote.Retries},
		{JSON: "remote.bytes_fetched", Prom: "rcjd_remote_bytes_fetched_total", Type: counter, Help: "Body bytes fetched by remote indexes.", Value: remote.BytesFetched},
		{JSON: "remote.checksum_failures", Prom: "rcjd_remote_checksum_failures_total", Type: counter, Help: "Fetched pages failing per-page CRC verification.", Value: remote.ChecksumFailures},
		{JSON: "remote.prefetch_offered", Prom: "rcjd_prefetch_offered_total", Type: counter, Help: "Pages offered to async readahead.", Value: prefetch.Offered},
		{JSON: "remote.prefetch_loaded", Prom: "rcjd_prefetch_loaded_total", Type: counter, Help: "Pages loaded ahead of demand.", Value: prefetch.Loaded},
		{JSON: "remote.prefetch_dropped", Prom: "rcjd_prefetch_dropped_total", Type: counter, Help: "Readahead offers shed under queue pressure.", Value: prefetch.Dropped},
		{JSON: "remote.prefetch_already_cached", Prom: "rcjd_prefetch_already_cached_total", Type: counter, Help: "Readahead offers and jobs skipped because the page was already cached.", Value: prefetch.AlreadyCached},
		{JSON: "remote.prefetch_failed", Prom: "rcjd_prefetch_failed_total", Type: counter, Help: "Readahead loads that failed (the demand path retries the page).", Value: prefetch.Failed},

		{JSON: "result_cache.entries", Prom: "rcjd_result_cache_entries", Type: gauge, Help: "Memoized result sets currently held.", Value: cache.Entries},
		{JSON: "result_cache.pairs", Prom: "rcjd_result_cache_pairs", Type: gauge, Help: "Pairs held across memoized result sets.", Value: cache.Pairs},
		{JSON: "result_cache.hits", Prom: "rcjd_result_cache_hits_total", Type: counter, Help: "Joins served from the result cache.", Value: cache.Hits},
		{JSON: "result_cache.misses", Prom: "rcjd_result_cache_misses_total", Type: counter, Help: "Cacheable joins that had to run.", Value: cache.Misses},
		{JSON: "result_cache.stores", Prom: "rcjd_result_cache_stores_total", Type: counter, Help: "Result sets memoized after clean completion.", Value: cache.Stores},
		{JSON: "result_cache.evictions", Prom: "rcjd_result_cache_evictions_total", Type: counter, Help: "Memoized results evicted by the LRU bound.", Value: cache.Evictions},
		{JSON: "result_cache.invalidations", Prom: "rcjd_result_cache_invalidations_total", Type: counter, Help: "Memoized results purged by index unloads.", Value: cache.Invalidations},

		// Live counters are monotone across unloads via the same retired fold;
		// the subscription counters are the scheduler's.
		{JSON: "live.indexes", Prom: "rcjd_live_indexes", Type: gauge, Help: "Registered mutable (live) indexes.", Value: lc.liveIndexes},
		{JSON: "live.inserts", Prom: "rcjd_live_inserts_total", Type: counter, Help: "Points inserted into live indexes.", Value: lc.inserts},
		{JSON: "live.deletes", Prom: "rcjd_live_deletes_total", Type: counter, Help: "Points deleted from live indexes.", Value: lc.deletes},
		{JSON: "live.batches", Prom: "rcjd_live_batches_total", Type: counter, Help: "Mutation batches applied to live indexes.", Value: lc.batches},
		{JSON: "live.compactions", Prom: "rcjd_live_compactions_total", Type: counter, Help: "Completed live-index compactions.", Value: lc.compactions},
		{JSON: "live.compact_failures", Prom: "rcjd_live_compact_failures_total", Type: counter, Help: "Failed live-index compactions (index kept serving).", Value: lc.compactFails},
		{JSON: "live.compact_seconds", Prom: "rcjd_live_compact_seconds_total", Type: counter, Help: "Wall time spent sealing live-index generations.", Value: lc.compactSeconds},
		{JSON: "live.delta_points", Prom: "rcjd_live_delta_points", Type: gauge, Help: "Points currently in in-memory deltas.", Value: lc.deltaPoints},
		{JSON: "live.tombstones", Prom: "rcjd_live_tombstones", Type: gauge, Help: "Base points currently masked by tombstones.", Value: lc.tombstones},
		{JSON: "live.subscribers", Prom: "rcjd_live_subscribers", Type: gauge, Help: "Open continuous-query subscriptions.", Value: snap.Subscriptions},
		{JSON: "live.subscriptions_started", Prom: "rcjd_live_subscriptions_total", Type: counter, Help: "Continuous-query subscriptions ever started.", Value: snap.SubscriptionsStarted},
		{JSON: "live.subscriptions_ended", Prom: "rcjd_live_subscriptions_ended_total", Type: counter, Help: "Continuous-query subscriptions that have ended.", Value: snap.SubscriptionsEnded},
		{JSON: "live.shed_feeds", Prom: "rcjd_live_shed_total", Type: counter, Help: "Subscription feeds shed for falling behind.", Value: lc.shedFeeds},

		{JSON: "requests", Prom: "rcjd_requests_total", Type: counter, Help: "HTTP requests served, by endpoint.", Value: s.requests.snapshot(), Label: "endpoint"},
		{JSON: "plan.auto", Prom: "rcjd_plan_auto_total", Type: counter, Help: "Joins whose plan the cost-based planner chose.", Value: s.planAuto.Load()},
		{JSON: "plan.fixed", Prom: "rcjd_plan_fixed_total", Type: counter, Help: "Joins that forced their plan verbatim.", Value: s.planFixed.Load()},
		{JSON: "plan.algorithms", Prom: "rcjd_plan_algorithm_total", Type: counter, Help: "Resolved joins by effective algorithm.", Value: s.planAlg.snapshot(), Label: "alg"},
		{JSON: "plan.rules", Prom: "rcjd_plan_rule_total", Type: counter, Help: "Resolved joins by planner decision rule.", Value: s.planRule.snapshot(), Label: "rule"},
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("metrics")
	WriteMetrics(w, r, s.metricRows())
}
