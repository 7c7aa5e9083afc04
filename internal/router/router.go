// Package router is the scatter-gather tier of a sharded RCJ deployment:
// one stateless HTTP process in front of a fleet of rcjd workers, each
// serving a subset of a shard manifest (internal/shard).
//
// A POST /join against the router looks exactly like a POST /join against
// one rcjd holding the whole dataset — same request fields, same NDJSON/CSV
// result rows, byte for byte — but executes as per-shard sub-queries fanned
// out to the workers owning each shard:
//
//   - Planning. A shard is contacted only if its cell intersects the
//     query's Region window (no Region: every populated shard). Skipped
//     shards count into the shards_pruned metric, so Region selectivity is
//     observable end to end.
//   - Ownership. Each sub-query carries region = cell ∩ Region, so a worker
//     only emits pairs whose circle center lies in its own cell; together
//     with the manifest's overlap margin (≥ MaxDiameter/2) every shard's
//     answer is locally complete — both pair endpoints and every potential
//     witness point are present in the shard file.
//   - Dedup. A pair whose center lies exactly on an interior grid cut is
//     owned by every cell touching the cut (the workers' Region test is
//     closed) and arrives from each of them as a byte-identical row; the
//     router keeps the first and drops the rest. Only rows whose center
//     coordinate bit-equals an interior cut are ever dedup candidates, so
//     the check costs nothing on interior pairs.
//   - Bounds. Sharded datasets always carry a diameter bound: the manifest's
//     MaxDiameter is the margin contract. A query bound above it is a typed
//     400; an absent one is tightened to the manifest's. Global top-k
//     gathers each shard's local top-k, merges by the engine's ranking
//     (ascending radius, ties by P then Q id), and republishes a tightened
//     bound — twice the current k-th radius — to every sub-query dispatched
//     after the tightening (fan-out is bounded, so late shards benefit).
//   - Failure. Sub-queries retry on other owners of the same shard, but only
//     while nothing of that shard's stream has been forwarded. A shard that
//     fails all attempts poisons the response with a typed error — in-band
//     {"error":...,"code":"shard_failure",...} if rows already streamed, a
//     502 JSON body otherwise — never a silently truncated 200.
//
// Workers always speak NDJSON to the router regardless of the client's
// format: NDJSON floats round-trip bit-exactly (shortest-form encoding), so
// re-encoded CSV rows and cut comparisons are exact, while CSV's fixed six
// decimals would not be.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// Worker is one rcjd process and the manifest shards it owns.
type Worker struct {
	// URL is the worker's base URL (e.g. "http://10.0.0.3:8080").
	URL string
	// Shards lists the shard ids this worker serves; nil means every
	// populated shard of the manifest.
	Shards []int
}

// Config assembles a Router.
type Config struct {
	// Manifest describes the sharded dataset (required, must Validate).
	Manifest *shard.Manifest
	// Workers is the fleet; every populated shard must be owned by at least
	// one worker.
	Workers []Worker
	// Fanout bounds concurrent in-flight sub-queries per request (default 4).
	Fanout int
	// Retries is how many *additional* attempts a failed sub-query gets,
	// each on the next owner of the shard (default 1; 0 disables failover).
	Retries int
	// SubTimeout caps each sub-query attempt (0 = request deadline only).
	SubTimeout time.Duration
	// Client issues worker requests (default: a plain http.Client).
	Client *http.Client
	// Logf, when non-nil, receives router lifecycle messages.
	Logf func(format string, args ...any)
}

// Router plans, scatters, and merges sub-queries. Create with New.
type Router struct {
	cfg    Config
	man    *shard.Manifest
	client *http.Client
	logf   func(string, ...any)

	// owners[id] lists the base URLs serving shard id, in Config order.
	owners map[int][]string
	// workerURLs is the deduplicated fleet, in Config order (metrics, health).
	workerURLs []string
	// xCuts/yCuts are the interior grid cuts: a result row is a dedup
	// candidate iff its center bit-equals one of these in that axis.
	xCuts, yCuts map[float64]struct{}

	rr atomic.Uint64 // round-robin cursor for spreading retries/first picks

	m metrics
}

type metrics struct {
	requests         atomic.Int64
	joinErrors       atomic.Int64
	subqueries       atomic.Int64
	retries          atomic.Int64
	failures         atomic.Int64
	shardsContacted  atomic.Int64
	shardsPruned     atomic.Int64
	boundTightenings atomic.Int64
	dedupDropped     atomic.Int64
	pairsEmitted     atomic.Int64
	perWorker        map[string]*atomic.Int64 // sub-queries per worker URL
}

// New validates the configuration and builds the shard-ownership plan.
func New(cfg Config) (*Router, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("router: manifest is required")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("router: at least one worker is required")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	rt := &Router{
		cfg:    cfg,
		man:    cfg.Manifest,
		client: cfg.Client,
		logf:   cfg.Logf,
		owners: map[int][]string{},
		xCuts:  map[float64]struct{}{},
		yCuts:  map[float64]struct{}{},
		m:      metrics{perWorker: map[string]*atomic.Int64{}},
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	for _, w := range cfg.Workers {
		if w.URL == "" {
			return nil, errors.New("router: worker URL must not be empty")
		}
		if _, dup := rt.m.perWorker[w.URL]; dup {
			return nil, fmt.Errorf("router: duplicate worker %s", w.URL)
		}
		rt.m.perWorker[w.URL] = &atomic.Int64{}
		rt.workerURLs = append(rt.workerURLs, w.URL)
		ids := w.Shards
		if ids == nil {
			for _, sh := range rt.man.Shards {
				if !sh.Empty() {
					ids = append(ids, sh.ID)
				}
			}
		}
		for _, id := range ids {
			if id < 0 || id >= len(rt.man.Shards) {
				return nil, fmt.Errorf("router: worker %s claims shard %d, manifest has 0..%d",
					w.URL, id, len(rt.man.Shards)-1)
			}
			if rt.man.Shards[id].Empty() {
				return nil, fmt.Errorf("router: worker %s claims empty shard %d", w.URL, id)
			}
			rt.owners[id] = append(rt.owners[id], w.URL)
		}
	}
	for _, sh := range rt.man.Shards {
		if !sh.Empty() && len(rt.owners[sh.ID]) == 0 {
			return nil, fmt.Errorf("router: shard %d is owned by no worker", sh.ID)
		}
	}
	xs, ys := rt.man.InteriorCuts()
	for _, x := range xs {
		rt.xCuts[x] = struct{}{}
	}
	for _, y := range ys {
		rt.yCuts[y] = struct{}{}
	}
	return rt, nil
}

// Handler returns the router's HTTP surface: POST /join (the scatter-gather
// query), GET /shards (the plan), GET /healthz (fleet health), GET /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", rt.handleJoin)
	mux.HandleFunc("GET /shards", rt.handleShards)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// subQuery is one planned shard contact: the shard and the region its
// worker must answer for (the cell, clipped by the query window).
type subQuery struct {
	shardID int
	region  shard.Rect
}

// plan selects the shards a query touches. region is the query window (nil
// = none); the second result is how many populated shards the window proved
// irrelevant.
func (rt *Router) plan(region *shard.Rect) (subs []subQuery, pruned int) {
	for _, sh := range rt.man.Shards {
		if sh.Empty() {
			continue
		}
		cell := sh.Cell
		if region != nil {
			clipped, ok := cell.Intersect(*region)
			if !ok {
				pruned++
				continue
			}
			cell = clipped
		}
		subs = append(subs, subQuery{shardID: sh.ID, region: cell})
	}
	return subs, pruned
}

// errorBody writes a typed JSON error. code is machine-readable; extras are
// merged into the object.
func errorBody(w http.ResponseWriter, status int, code, msg string, extras map[string]any) {
	body := map[string]any{"error": msg, "code": code}
	for k, v := range extras {
		body[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	type shardView struct {
		ID      int        `json:"id"`
		Cell    shard.Rect `json:"cell"`
		PCount  int        `json:"p_count"`
		QCount  int        `json:"q_count,omitempty"`
		Workers []string   `json:"workers"`
	}
	var views []shardView
	for _, sh := range rt.man.Shards {
		if sh.Empty() {
			continue
		}
		views = append(views, shardView{
			ID: sh.ID, Cell: sh.Cell, PCount: sh.PCount, QCount: sh.QCount,
			Workers: rt.owners[sh.ID],
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"manifest":     rt.man.Name,
		"self":         rt.man.Self,
		"grid":         fmt.Sprintf("%dx%d", rt.man.GridNX, rt.man.GridNY),
		"max_diameter": rt.man.MaxDiameter,
		"margin":       rt.man.Margin,
		"shards":       views,
	})
}

// handleHealthz probes every worker's /healthz concurrently: 200 with
// per-worker "ok" when the whole fleet serves, 503 naming the down workers
// otherwise.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	type probe struct {
		url string
		err error
	}
	ch := make(chan probe, len(rt.workerURLs))
	for _, url := range rt.workerURLs {
		go func(url string) {
			ch <- probe{url, rt.probeWorker(ctx, url)}
		}(url)
	}
	workers := map[string]string{}
	healthy := true
	for range rt.workerURLs {
		p := <-ch
		if p.err != nil {
			workers[p.url] = p.err.Error()
			healthy = false
		} else {
			workers[p.url] = "ok"
		}
	}
	status := http.StatusOK
	state := "ok"
	if !healthy {
		status = http.StatusServiceUnavailable
		state = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"status": state, "workers": workers})
}

func (rt *Router) probeWorker(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// handleMetrics serves GET /metrics in rcjd's two encodings (JSON, or the
// Prometheus exposition on ?format=prom / Accept: text/plain) from one
// declaration of each series.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	perWorker := map[string]int64{}
	for url, c := range rt.m.perWorker {
		perWorker[url] = c.Load()
	}
	counter := func(json, prom, help string, v *atomic.Int64) server.Series {
		return server.Series{JSON: json, Prom: prom, Type: "counter", Help: help, Value: v.Load()}
	}
	server.WriteMetrics(w, r, []server.Series{
		counter("requests", "rcjrouter_requests_total", "Join requests accepted by the router.", &rt.m.requests),
		counter("join_errors", "rcjrouter_join_errors_total", "Join requests that ended in an error.", &rt.m.joinErrors),
		counter("subqueries", "rcjrouter_subqueries_total", "Sub-queries dispatched to workers.", &rt.m.subqueries),
		{JSON: "subqueries_per_worker", Prom: "rcjrouter_worker_subqueries_total", Type: "counter",
			Help: "Sub-queries dispatched, by worker.", Value: perWorker, Label: "worker"},
		counter("subquery_retries", "rcjrouter_subquery_retries_total", "Sub-query attempts retried on another owner.", &rt.m.retries),
		counter("subquery_failures", "rcjrouter_subquery_failures_total", "Sub-queries failed after all attempts.", &rt.m.failures),
		counter("shards_contacted", "rcjrouter_shards_contacted_total", "Shards contacted across all joins.", &rt.m.shardsContacted),
		counter("shards_pruned", "rcjrouter_shards_pruned_total", "Shards skipped because the query region missed their cell.", &rt.m.shardsPruned),
		counter("bound_tightenings", "rcjrouter_bound_tightenings_total", "Top-k bound tightenings republished to later sub-queries.", &rt.m.boundTightenings),
		counter("dedup_dropped", "rcjrouter_dedup_dropped_total", "Boundary-duplicate rows dropped during merge.", &rt.m.dedupDropped),
		counter("pairs_emitted", "rcjrouter_pairs_emitted_total", "Result rows streamed to clients.", &rt.m.pairsEmitted),
	})
}

// sortRows orders rows by the engine's deterministic pair ranking:
// ascending radius, ties broken by P id then Q id (core's pairBefore).
func sortRows(rows []row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].line, rows[j].line
		if a.Radius != b.Radius {
			return a.Radius < b.Radius
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.QID < b.QID
	})
}
