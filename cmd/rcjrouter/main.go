// Command rcjrouter is the scatter-gather front of a sharded RCJ
// deployment: it reads a shard manifest (.rcjm), maps shards onto a fleet
// of rcjd workers, and serves the same POST /join a single rcjd would —
// planning which shards each query touches, fanning sub-queries out with
// bounded concurrency and per-shard failover, and merging the streams back
// into one byte-identical answer.
//
// Usage:
//
//	# Workers own everything the manifest lists:
//	rcjrouter -addr :9090 -manifest data.rcjm \
//	          -worker http://10.0.0.1:8080 -worker http://10.0.0.2:8080
//
//	# Or pin shards to workers (replicas allowed; they serve as failover):
//	rcjrouter -manifest data.rcjm \
//	          -worker http://10.0.0.1:8080=0,1 -worker http://10.0.0.2:8080=2,3
//
//	curl -sN localhost:9090/join -d '{"p":"p","q":"q","format":"csv"}'
//	curl -s  localhost:9090/shards    # the plan: cells, counts, owners
//	curl -s  localhost:9090/healthz   # fleet health, 503 if any worker down
//	curl -s  'localhost:9090/metrics?format=prom'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		manifest   = flag.String("manifest", "", "shard manifest (.rcjm) describing the dataset (required)")
		fanout     = flag.Int("fanout", 4, "max concurrent sub-queries per join")
		retries    = flag.Int("retries", 1, "extra attempts per failed sub-query, each on the shard's next owner")
		subTimeout = flag.Duration("subquery-timeout", 0, "per-sub-query deadline (0 = request deadline only)")
	)
	var workers []router.Worker
	flag.Func("worker", "rcjd worker, as url (owns all shards) or url=0,2,5 (owns those shards); repeatable", func(v string) error {
		w := router.Worker{URL: v}
		// Shard lists attach after the last "=" so URLs with query strings
		// still parse; a trailing piece that is not a comma-separated int
		// list is part of the URL.
		if i := strings.LastIndex(v, "="); i >= 0 {
			if ids, ok := parseIDs(v[i+1:]); ok {
				w.URL, w.Shards = v[:i], ids
			}
		}
		w.URL = strings.TrimRight(w.URL, "/")
		if w.URL == "" {
			return fmt.Errorf("empty worker URL in %q", v)
		}
		workers = append(workers, w)
		return nil
	})
	flag.Parse()

	if *manifest == "" {
		fmt.Fprintln(os.Stderr, "rcjrouter: -manifest is required")
		flag.Usage()
		os.Exit(2)
	}
	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "rcjrouter: at least one -worker is required")
		flag.Usage()
		os.Exit(2)
	}
	m, err := shard.Load(*manifest)
	if err != nil {
		fatalf("%v", err)
	}
	rt, err := router.New(router.Config{
		Manifest:   m,
		Workers:    workers,
		Fanout:     *fanout,
		Retries:    *retries,
		SubTimeout: *subTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	populated := 0
	for _, sh := range m.Shards {
		if !sh.Empty() {
			populated++
		}
	}
	fmt.Fprintf(os.Stderr, "rcjrouter: serving %s (%d shards, %dx%d grid) on %s with %d workers\n",
		m.Name, populated, m.GridNX, m.GridNY, ln.Addr(), len(workers))

	err = server.ServeUntilDone(ctx, ln, rt.Handler(), 30*time.Second, func() {
		fmt.Fprintln(os.Stderr, "rcjrouter: shutdown signal received, draining")
	})
	if err != nil {
		fatalf("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "rcjrouter: drained, exiting")
}

func parseIDs(s string) ([]int, bool) {
	if s == "" {
		return nil, false
	}
	var ids []int
	for _, f := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, false
		}
		ids = append(ids, id)
	}
	return ids, true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rcjrouter: "+format+"\n", args...)
	os.Exit(1)
}
