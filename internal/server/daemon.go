// Daemon assembly: everything cmd/rcjd does apart from flag parsing lives
// here so the SIGTERM drain path is exercisable by in-process tests.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers for the flag-gated profiling listener
	"sort"
	"time"

	"repro/internal/sched"
	"repro/rcj"
)

// DaemonConfig is the full configuration of one rcjd process.
type DaemonConfig struct {
	// Addr is the listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
	// Indexes maps registry names to saved .rcjx paths, all loaded before
	// the listener accepts traffic.
	Indexes map[string]string
	// LiveIndexes maps registry names to saved .rcjx paths loaded as live
	// (mutable) indexes — the path is the sealed base, or empty to start the
	// index with no points. POST /indexes/{name}/points applies updates and
	// POST /subscribe streams continuous-query results over them.
	LiveIndexes map[string]string
	// LiveCompactEvery triggers background compaction of live indexes once a
	// delta reaches it (0 = live.DefaultCompactEvery, negative disables);
	// LiveKeepGenerations > 0 prunes all but that many sealed generation
	// files after each compaction.
	LiveCompactEvery    int
	LiveKeepGenerations int
	// Manifest, when non-empty, is a shard-manifest path (.rcjm); the
	// worker loads ManifestShards of it (nil = every populated shard) as
	// "s<id>.p"/"s<id>.q" before the listener accepts traffic.
	// ManifestBase optionally rebases the manifest's relative shard paths
	// (e.g. onto an http(s) object-storage origin).
	Manifest       string
	ManifestShards []int
	ManifestBase   string
	// Backend is the pager substrate for the loaded indexes.
	Backend rcj.Backend
	// BufferPages sizes the engine's shared pool (rcj.EngineConfig
	// semantics).
	BufferPages int
	// PprofAddr, when non-empty, serves net/http/pprof on its own listener
	// at this address (separate from the query port, so profiling is never
	// exposed on the service address by accident).
	PprofAddr string
	// Sched bounds admission: concurrent joins, queue depth, queue wait,
	// per-join deadline, cross-request batching (sched.Config semantics).
	Sched sched.Config
	// ResultCacheEntries sizes the memoized-result cache (Config semantics;
	// 0 disables it).
	ResultCacheEntries int
	// DrainTimeout caps how long shutdown waits for in-flight joins after
	// the stop signal; 0 means 30s.
	DrainTimeout time.Duration
	// Logf, when non-nil, receives daemon lifecycle messages.
	Logf func(format string, args ...any)
}

// RunDaemon builds the engine/scheduler/server stack from cfg, loads every
// configured index, serves HTTP on cfg.Addr, and blocks until ctx is
// cancelled (the signal path), then drains: new joins are rejected with 503
// while in-flight and queued joins stream to completion, bounded by
// DrainTimeout. ready, when non-nil, is called with the bound address once
// the listener accepts traffic.
func RunDaemon(ctx context.Context, cfg DaemonConfig, ready func(addr string)) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	drainTimeout := cfg.DrainTimeout
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}

	if cfg.PprofAddr != "" {
		pprofLn, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		// DefaultServeMux carries the net/http/pprof handlers registered by
		// the blank import; nothing else is ever registered on it here.
		pprofSrv := &http.Server{Handler: http.DefaultServeMux}
		defer pprofSrv.Close()
		logf("rcjd: pprof on http://%s/debug/pprof/", pprofLn.Addr())
		go func() { _ = pprofSrv.Serve(pprofLn) }()
	}

	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: cfg.BufferPages})
	sch := sched.New(eng, cfg.Sched)
	srv := New(sch, Config{Backend: cfg.Backend, ResultCacheEntries: cfg.ResultCacheEntries})
	srv.logf = logf
	// Indexes are closed on exit unless a join may still be running:
	// closing an index pulls the pager out from under a still-wedged join,
	// so an incomplete drain leaks them instead (the process is exiting
	// anyway).
	leakIndexes := false
	defer func() {
		if !leakIndexes {
			srv.Close()
		}
	}()

	// Deterministic load order so startup logs are reproducible.
	names := make([]string, 0, len(cfg.Indexes))
	for name := range cfg.Indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := cfg.Indexes[name]
		if err := srv.LoadIndex(name, path); err != nil {
			return fmt.Errorf("load index %s=%s: %w", name, path, err)
		}
		e, _ := srv.lookup(name)
		logf("rcjd: loaded index %s (%d points, %s backend) from %s", name, e.ix.Len(), cfg.Backend, path)
	}
	liveNames := make([]string, 0, len(cfg.LiveIndexes))
	for name := range cfg.LiveIndexes {
		liveNames = append(liveNames, name)
	}
	sort.Strings(liveNames)
	for _, name := range liveNames {
		path := cfg.LiveIndexes[name]
		if err := srv.LoadMutableIndex(name, path, cfg.LiveCompactEvery, cfg.LiveKeepGenerations); err != nil {
			return fmt.Errorf("load live index %s=%s: %w", name, path, err)
		}
		e, _ := srv.lookup(name)
		src := path
		if src == "" {
			src = "(empty)"
		}
		logf("rcjd: loaded live index %s (%d points, mutable) from %s", name, e.ix.Len(), src)
	}
	if cfg.Manifest != "" {
		loaded, err := srv.LoadManifestShards(cfg.Manifest, cfg.ManifestShards, cfg.ManifestBase)
		if err != nil {
			return fmt.Errorf("load manifest %s: %w", cfg.Manifest, err)
		}
		for _, name := range loaded {
			e, _ := srv.lookup(name)
			logf("rcjd: loaded shard index %s (%d points) from %s", name, e.ix.Len(), e.path)
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	logf("rcjd: serving on %s (maxConcurrent=%d maxQueue=%d)",
		ln.Addr(), sch.Config().MaxConcurrent, sch.Config().MaxQueue)
	if ready != nil {
		ready(ln.Addr().String())
	}

	// Order matters in the drain: first stop admitting joins (so queued
	// handlers fail fast with 503 and /healthz flips), then let the HTTP
	// server wait for in-flight handlers — each of which holds a streaming
	// join — to finish.
	shutdownErr := ServeUntilDone(ctx, ln, srv.Handler(), drainTimeout, func() {
		logf("rcjd: shutdown signal received, draining (timeout %s)", drainTimeout)
		sch.BeginDrain()
	})
	if ctx.Err() == nil {
		// The listener died under us; handlers (and their joins) may still
		// be running, so the indexes must outlive this return.
		leakIndexes = true
		return shutdownErr
	}
	// Every handler has returned, or been cut off with its join's context
	// cancelled: give the slots a short grace to unwind.
	waitCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := sch.Drain(waitCtx); err != nil {
		leakIndexes = true
		return fmt.Errorf("rcjd: drain incomplete: %w", errors.Join(shutdownErr, err))
	}
	if shutdownErr != nil {
		return fmt.Errorf("rcjd: shutdown: %w", shutdownErr)
	}
	logf("rcjd: drained, exiting")
	return nil
}

// ServeUntilDone is the listen/serve/drain loop both daemons run: it serves
// handler on ln until ctx is cancelled (the signal path), then calls onStop
// and waits up to drainTimeout for in-flight requests to finish; requests
// still running after that are cut off. It returns nil after a clean drain,
// the shutdown error after a cut one, and — with ctx still live — the
// listener's error if serving failed.
func ServeUntilDone(ctx context.Context, ln net.Listener, handler http.Handler, drainTimeout time.Duration, onStop func()) error {
	// A client that never finishes its request headers must not hold a
	// connection forever.
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	onStop()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := httpSrv.Shutdown(drainCtx)
	if err != nil {
		httpSrv.Close()
	}
	return err
}
