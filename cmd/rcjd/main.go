// Command rcjd is the ring-constrained join daemon: a long-lived process
// serving streaming RCJ queries over pre-built saved indexes (.rcjx) to
// HTTP clients, with bounded concurrency, FIFO admission queueing, and
// per-request observability.
//
// Usage:
//
//	rcjd -addr :8080 \
//	     -index restaurants=restaurants.rcjx -index residences=residences.rcjx \
//	     -backend file -buffer 4096 \
//	     -max-concurrent 4 -max-queue 64 -queue-timeout 2s -join-timeout 1m
//
//	# Serve indexes hosted by any range-capable HTTP server (no shared
//	# filesystem): pages fetch lazily, checksum-verified, with async
//	# readahead. URL indexes also load at runtime via POST /indexes.
//	rcjd -addr :8080 -index p=https://indexes.example.com/p.rcjx
//
//	# Stream a join (NDJSON, one pair per line, summary last):
//	curl -sN localhost:8080/join -d '{"p":"restaurants","q":"residences"}'
//
//	# Same result rows as `rcjjoin` CSV output:
//	curl -sN localhost:8080/join -d '{"p":"restaurants","q":"residences","format":"csv"}'
//
//	curl -s localhost:8080/indexes     # registry
//	curl -s localhost:8080/metrics     # counters: in-flight, queued, rejected, ...
//	curl -s localhost:8080/healthz     # 200 serving / 503 draining
//
//	# Live (mutable) indexes: open over a sealed base, or born empty.
//	# Mutations apply in atomic batches; a background compactor seals
//	# delta+base into .g<seq>.rcjx generations past -live-compact points.
//	rcjd -addr :8080 -live-index places=places.rcjx -live-index scratch \
//	     -live-compact 4096 -live-keep-generations 4
//	curl -s localhost:8080/indexes/places/points \
//	     -d '{"insert":[{"id":9001,"x":512.5,"y":1033.0}],"delete":[17]}'
//
//	# Continuous query: replay the current result set (add... sync), then
//	# exact incremental changes as batches apply (NDJSON, long-lived):
//	curl -sN localhost:8080/subscribe -d '{"p":"places","self":true}'
//
// Requests beyond -max-concurrent wait in a FIFO queue of depth -max-queue
// (429 once full; 429 after -queue-timeout in queue); each admitted join is
// capped by -join-timeout. SIGTERM/SIGINT drains gracefully: new joins get
// 503 while in-flight and queued streams run to completion, bounded by
// -drain-timeout.
//
// Shared-work serving (on by default): bounded top_k/limit results are
// memoized across requests (-result-cache), invalidated when an index is
// unloaded, and remote-index page fetches are single-flighted and coalesced
// automatically. Every admitted join runs its own traversal. /metrics
// reports the sharing: rcjd_result_cache_*, rcjd_remote_shared_total,
// rcjd_remote_coalesced_total.
//
// Adaptive planning (on by default): a join that names no algorithm ("alg"
// absent or "auto") is planned per query by the cost-based planner from
// index metadata; naming one ("obj", "inj", "brute") forces it verbatim.
// Each NDJSON summary reports the resolved plan ("alg", "parallelism" —
// always 1 — and "plan"); /metrics reports rcjd_plan_auto_total,
// rcjd_plan_fixed_total, and per-algorithm/-rule breakdowns.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/rcj"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		backend       = flag.String("backend", "mem", "pager backend for saved indexes: mem, file, or http (implied by URL indexes)")
		bufPages      = flag.Int("buffer", 4096, "shared buffer pool size in pages (0 = unbounded)")
		maxConcurrent = flag.Int("max-concurrent", 2, "joins running simultaneously")
		maxQueue      = flag.Int("max-queue", 16, "admission queue depth beyond running joins (0 = no queue)")
		queueTimeout  = flag.Duration("queue-timeout", 5*time.Second, "max wait in the admission queue (0 = unbounded)")
		joinTimeout   = flag.Duration("join-timeout", 0, "per-request join deadline (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight joins on shutdown")
		cacheEntries  = flag.Int("result-cache", 256, "memoized result sets for bounded (top_k/limit) queries (0 = off)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
		manifest      = flag.String("manifest", "", "shard manifest (.rcjm) to serve as a sharded-deployment worker")
		shardIDs      = flag.String("shards", "", "comma-separated shard ids of -manifest to own (default: all populated shards)")
		manifestBase  = flag.String("manifest-base", "", "URL or directory prefix overriding the manifest's relative shard paths (e.g. http://storage:9000/idx)")
		liveCompact   = flag.Int("live-compact", 0, "compact a live index once its in-memory delta reaches this many points (0 = default 4096, negative = manual only)")
		liveKeepGens  = flag.Int("live-keep-generations", 0, "on-disk sealed generations to keep per live index (0 = all)")
	)
	indexes := map[string]string{}
	flag.Func("index", "saved index to serve, as name=path.rcjx or name=https://host/ix.rcjx (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := indexes[name]; dup {
			return fmt.Errorf("duplicate index name %q", name)
		}
		indexes[name] = path
		return nil
	})
	liveIndexes := map[string]string{}
	flag.Func("live-index", "live (mutable) index to serve, as name=base.rcjx or just name for an index born empty (repeatable); accepts POST /indexes/{name}/points and /subscribe", func(v string) error {
		name, path, _ := strings.Cut(v, "=")
		if name == "" {
			return fmt.Errorf("want name=base.rcjx or name, got %q", v)
		}
		if _, dup := indexes[name]; dup {
			return fmt.Errorf("duplicate index name %q", name)
		}
		if _, dup := liveIndexes[name]; dup {
			return fmt.Errorf("duplicate index name %q", name)
		}
		liveIndexes[name] = path
		return nil
	})
	flag.Parse()

	if len(indexes) == 0 && len(liveIndexes) == 0 && *manifest == "" {
		fmt.Fprintln(os.Stderr, "rcjd: at least one -index name=path.rcjx, -live-index, or -manifest is required")
		flag.Usage()
		os.Exit(2)
	}
	var shards []int
	if *shardIDs != "" {
		if *manifest == "" {
			fatalf("-shards requires -manifest")
		}
		for _, f := range strings.Split(*shardIDs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fatalf("bad -shards entry %q: %v", f, err)
			}
			shards = append(shards, id)
		}
	}
	be, err := rcj.ParseBackend(*backend)
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = server.RunDaemon(ctx, server.DaemonConfig{
		Addr:                *addr,
		Indexes:             indexes,
		LiveIndexes:         liveIndexes,
		LiveCompactEvery:    *liveCompact,
		LiveKeepGenerations: *liveKeepGens,
		Manifest:            *manifest,
		ManifestShards:      shards,
		ManifestBase:        *manifestBase,
		Backend:             be,
		BufferPages:         *bufPages,
		PprofAddr:           *pprofAddr,
		Sched: sched.Config{
			MaxConcurrent: *maxConcurrent,
			MaxQueue:      *maxQueue,
			QueueTimeout:  *queueTimeout,
			JoinTimeout:   *joinTimeout,
		},
		ResultCacheEntries: *cacheEntries,
		DrainTimeout:       *drainTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, nil)
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rcjd: "+format+"\n", args...)
	os.Exit(1)
}
