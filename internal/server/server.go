// Package server is the HTTP serving layer of the ring-constrained join
// system: a stdlib-only net/http front end over the sched.Scheduler and a
// registry of saved `.rcjx` indexes opened through rcj.Engine.OpenIndex.
// It is what cmd/rcjd runs.
//
// Endpoints:
//
//	POST /join     stream a join as NDJSON (or CSV), one line per confirmed
//	               pair, flushed as the executor emits them; a final summary
//	               line carries the request's exact statistics (including
//	               nodes_pruned for constrained queries). The predicate
//	               fields max_diameter, min_distance, top_k, limit and
//	               region push down into the index traversal. Admission-
//	               control rejections surface as 429 (overloaded, queue
//	               timeout) or 503 (draining) before any result bytes.
//	               Like every JSON body the server reads, the request is
//	               size-bounded: 413 beyond the bound, before admission.
//	GET  /indexes  list the loaded indexes (with in-flight reference counts).
//	POST /indexes  load a saved index file: {"name": ..., "path": ...}.
//	DELETE /indexes/{name}  unload an index, dropping its pages from the
//	               shared pool; 409 while in-flight joins reference it.
//	GET  /healthz  200 while serving, 503 once draining.
//	GET  /metrics  expvar-style JSON counters: scheduler snapshot (in-flight,
//	               queued, rejected, pairs emitted, per-request-exact buffer
//	               attribution) plus the engine's pool-wide stats. With
//	               ?format=prom (or Accept: text/plain) the same counters in
//	               the Prometheus text exposition format.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/rcj"
)

// ErrIndexExists is returned by LoadIndex when the name is already taken.
var ErrIndexExists = errors.New("server: index name already loaded")

// ErrIndexUnknown is returned by UnloadIndex for a name that is not loaded.
var ErrIndexUnknown = errors.New("server: unknown index")

// ErrIndexBusy is returned by UnloadIndex while in-flight joins still
// reference the index; the unload is rejected cleanly and can be retried.
var ErrIndexBusy = errors.New("server: index in use by in-flight joins")

// DefaultResultCachePairs caps how many pairs one cached result may hold
// when Config.ResultCachePairs is zero.
const DefaultResultCachePairs = 4096

// Config assembles a Server.
type Config struct {
	// Backend is the pager substrate indexes are opened with (default
	// BackendMem; see rcj.IndexConfig.Backend).
	Backend rcj.Backend
	// ResultCacheEntries bounds the result cache (see cache.go); 0 disables
	// caching entirely.
	ResultCacheEntries int
	// ResultCachePairs caps the pairs of one cacheable result (default
	// DefaultResultCachePairs); queries bounded looser than this bypass the
	// cache.
	ResultCachePairs int
}

// Server routes HTTP requests into a join scheduler and an index registry.
// Create with New, mount via Handler.
type Server struct {
	sched   *sched.Scheduler
	backend rcj.Backend
	// logf receives what no request can be told: background compaction
	// failures. RunDaemon points it at DaemonConfig.Logf.
	logf func(format string, args ...any)

	cache *resultCache // nil when disabled; all methods nil-safe

	mu      sync.RWMutex
	indexes map[string]*indexEntry
	nextGen uint64 // generation source for loaded indexes (guarded by mu)
	// Retired remote/prefetch/live totals of unloaded indexes: /metrics
	// counters must stay monotone across unload/reload cycles, so a closed
	// index's final counts fold in here rather than vanishing from the sums.
	retiredRemote   rcj.RemoteStats
	retiredPrefetch rcj.PrefetchStats
	retiredLive     liveCounters

	requests atomic64map

	// Planner observability: how many joins let the planner decide vs.
	// forced a plan, and which algorithms/rules the decisions landed on.
	planAuto  atomic.Int64
	planFixed atomic.Int64
	planAlg   atomic64map // by resolved algorithm ("obj", "inj", ...)
	planRule  atomic64map // by decision rule ("default-obj", "tiny-brute", ...)
}

// indexEntry is one registered index and how it was loaded. refs counts the
// in-flight joins reading the index (guarded by Server.mu), so an unload
// can refuse to pull pages out from under a running traversal. gen is the
// registration's unique generation: result-cache keys embed it, so a
// same-name reload can never serve a stale cached result.
type indexEntry struct {
	ix      *rcj.Index
	path    string
	backend rcj.Backend
	refs    int
	gen     uint64
	subs    int        // open subscriptions depending on this index (guarded by Server.mu)
	shard   *shardMeta // non-nil for manifest-loaded shard indexes
}

// genKey is the entry's result-cache generation: the registration generation
// alone for immutable indexes, with the live epoch sequence folded in for
// mutable ones — every applied mutation batch and every compaction bumps the
// epoch, so no cached result survives a change to the underlying point set.
func (e *indexEntry) genKey() string {
	g := strconv.FormatUint(e.gen, 10)
	if e.ix.Mutable() {
		g += "." + strconv.FormatUint(e.ix.Epoch(), 10)
	}
	return g
}

// atomic64map is a tiny fixed-key counter set for per-endpoint request
// totals; expvar-style without expvar's process-global registry (tests run
// many Servers in one process).
type atomic64map struct {
	mu sync.Mutex
	m  map[string]int64
}

func (a *atomic64map) inc(k string) {
	a.mu.Lock()
	if a.m == nil {
		a.m = make(map[string]int64)
	}
	a.m[k]++
	a.mu.Unlock()
}

func (a *atomic64map) snapshot() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.m))
	for k, v := range a.m {
		out[k] = v
	}
	return out
}

// New returns a server admitting joins through sch, opening indexes with
// cfg.Backend.
func New(sch *sched.Scheduler, cfg Config) *Server {
	return &Server{
		sched:   sch,
		backend: cfg.Backend,
		logf:    func(string, ...any) {},
		cache:   newResultCache(cfg.ResultCacheEntries, cfg.ResultCachePairs),
		indexes: make(map[string]*indexEntry),
	}
}

// Scheduler returns the server's join scheduler.
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// recordPlan folds one resolved plan into the rcjd_plan_* counters.
func (s *Server) recordPlan(dec rcj.PlanDecision) {
	if dec.Rule == "fixed" {
		s.planFixed.Add(1)
	} else {
		s.planAuto.Add(1)
	}
	s.planAlg.inc(strings.ToLower(dec.Algorithm.String()))
	s.planRule.inc(dec.Rule)
}

// LoadIndex opens the saved index at path through the engine (shared buffer
// pool, O(1) reattach) and registers it under name. Loading a name twice is
// an error; indexes are immutable while registered.
//
// The open happens outside the registry lock (a mem-backend load reads the
// whole page image, and in-flight /join lookups must not stall behind an
// admin load), and the registration records the backend the index actually
// opened with: a URL path upgrades to the http backend regardless of the
// server's default.
func (s *Server) LoadIndex(name, path string) error {
	return s.loadIndex(name, path, nil)
}

// rcjIndexConfig is the open configuration LoadIndex uses.
func rcjIndexConfig(b rcj.Backend) rcj.IndexConfig {
	return rcj.IndexConfig{Backend: b}
}

// lookup returns the registered index for name.
func (s *Server) lookup(name string) (*indexEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.indexes[name]
	return e, ok
}

// acquire pins the registered index for one in-flight join; the caller must
// release it when the join's stream terminates. A pinned index cannot be
// unloaded.
func (s *Server) acquire(name string) (*indexEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.indexes[name]
	if !ok {
		return nil, false
	}
	e.refs++
	return e, true
}

// release unpins an index acquired for a join.
func (s *Server) release(e *indexEntry) {
	s.mu.Lock()
	e.refs--
	s.mu.Unlock()
}

// UnloadIndex removes the named index from the registry and drops its pages
// from the engine's shared buffer pool. An index still referenced by
// in-flight joins is not unloaded (ErrIndexBusy): the traversal owns its
// pages and its pager until the stream ends.
func (s *Server) UnloadIndex(name string) error {
	s.mu.Lock()
	e, ok := s.indexes[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrIndexUnknown, name)
	}
	if e.refs > 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q (%d in flight)", ErrIndexBusy, name, e.refs)
	}
	// Retire the counters in the same critical section that removes the
	// entry: a /metrics scrape between removal and close must see the
	// retired totals already folded in, or the counters would dip and read
	// as a Prometheus counter reset.
	rs0, ps0 := indexStats(e.ix)
	s.addRetired(rs0, ps0)
	// Live counters fold here too (monotone across unload/reload); a final
	// background compaction racing the close may go uncounted, which keeps
	// the totals monotone, just not perfectly exhaustive.
	if lst, ok := e.ix.LiveStats(); ok {
		s.retiredLive.add(lst)
	}
	delete(s.indexes, name)
	s.mu.Unlock()
	// Purge memoized results depending on the unloaded index. Stores only
	// happen while the storing join holds refs, and refs were zero above, so
	// no store for this registration can land after the purge; a reload of
	// the same name additionally gets a fresh generation.
	s.cache.invalidate(name)
	// Close outside the lock: it invalidates the index's owner pages across
	// every pool shard, and lookups must not stall behind that sweep.
	err := e.ix.Close()
	// The prefetcher may have completed a few loads between the snapshot
	// and the drain; fold the delta in so the totals end exact.
	rs1, ps1 := indexStats(e.ix)
	s.mu.Lock()
	s.addRetired(rs1.Sub(rs0), ps1.Sub(ps0))
	s.mu.Unlock()
	return err
}

// indexStats reads an index's remote/prefetch counters (zero when absent).
func indexStats(ix *rcj.Index) (rcj.RemoteStats, rcj.PrefetchStats) {
	rs, _ := ix.RemoteStats()
	ps, _ := ix.PrefetchStats()
	return rs, ps
}

// addRetired folds counters into the retired totals. Caller holds s.mu.
func (s *Server) addRetired(rs rcj.RemoteStats, ps rcj.PrefetchStats) {
	s.retiredRemote.Add(rs)
	s.retiredPrefetch.Add(ps)
}

// Close closes every registered index, retiring its counters so a final
// scrape still sums correctly.
func (s *Server) Close() error {
	s.mu.Lock()
	entries := make([]*indexEntry, 0, len(s.indexes))
	for name, e := range s.indexes {
		rs, ps := indexStats(e.ix)
		s.addRetired(rs, ps)
		if lst, ok := e.ix.LiveStats(); ok {
			s.retiredLive.add(lst)
		}
		entries = append(entries, e)
		delete(s.indexes, name)
	}
	s.mu.Unlock()
	var first error
	for _, e := range entries {
		if err := e.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", s.handleJoin)
	mux.HandleFunc("POST /subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /indexes", s.handleListIndexes)
	mux.HandleFunc("POST /indexes", s.handleLoadIndex)
	mux.HandleFunc("POST /indexes/{name}/points", s.handleMutate)
	mux.HandleFunc("DELETE /indexes/{name}", s.handleUnloadIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorJSON is the uniform error payload.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request bodies are bounded before they are decoded, so a client cannot
// make the daemon buffer what it sends. Query, subscription and load
// requests are a few hundred bytes; a mutation batch carries ~60 bytes per
// point, so its bound admits batches of a quarter-million points.
const (
	maxRequestBody  = 1 << 20
	maxMutationBody = 16 << 20
)

// decodeBody decodes the request's JSON body into v, reading at most limit
// bytes. On failure it has answered — 413 for an oversize body, 400 for a
// malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		errorJSON(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	} else {
		errorJSON(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("healthz")
	if s.sched.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// indexInfo is one row of GET /indexes. Generation is the registration's
// cache generation; CachedResults counts memoized result sets depending on
// this index (dropped atomically when it unloads).
type indexInfo struct {
	Name          string `json:"name"`
	Points        int    `json:"points"`
	Path          string `json:"path"`
	Backend       string `json:"backend"`
	InFlight      int    `json:"in_flight"`
	Generation    uint64 `json:"generation"`
	CachedResults int    `json:"cached_results"`
	// Mutable marks a live index; Live carries its epoch state (delta size,
	// tombstones, compactions, open subscriptions).
	Mutable bool      `json:"mutable,omitempty"`
	Live    *liveInfo `json:"live,omitempty"`
	// Shard identity for manifest-loaded indexes: the owned cell rectangle
	// ([minX, minY, maxX, maxY]) this worker advertises to the router.
	Manifest string    `json:"manifest,omitempty"`
	Shard    *int      `json:"shard,omitempty"`
	Cell     []float64 `json:"cell,omitempty"`
}

// withShard fills the shard columns from a registration's metadata.
func (info indexInfo) withShard(meta *shardMeta) indexInfo {
	if meta != nil {
		id := meta.id
		info.Manifest = meta.manifest
		info.Shard = &id
		info.Cell = meta.cell[:]
	}
	return info
}

func (s *Server) handleListIndexes(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("indexes")
	s.mu.RLock()
	out := make([]indexInfo, 0, len(s.indexes))
	for name, e := range s.indexes {
		info := indexInfo{Name: name, Points: e.ix.Len(), Path: e.path, Backend: e.backend.String(),
			InFlight: e.refs, Generation: e.gen, CachedResults: s.cache.countFor(name)}.withShard(e.shard)
		if st, ok := e.ix.LiveStats(); ok {
			info.Mutable = true
			info.Live = &liveInfo{
				Epoch:            st.Seq,
				BasePoints:       st.BasePoints,
				DeltaPoints:      st.DeltaPoints,
				Tombstones:       st.Tombstones,
				Generation:       st.Generation,
				GenerationPoints: st.GenerationPoints,
				Inserts:          st.Inserts,
				Deletes:          st.Deletes,
				Compactions:      st.Compactions,
				CompactSeconds:   st.CompactSeconds,
				Subscribers:      e.subs,
			}
		}
		out = append(out, info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// handleUnloadIndex serves DELETE /indexes/{name}: the operational unload
// path. The index's cached pages leave the shared pool; joins referencing
// it keep it alive (409, retry after they drain).
func (s *Server) handleUnloadIndex(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("indexes_unload")
	name := r.PathValue("name")
	if err := s.UnloadIndex(name); err != nil {
		switch {
		case errors.Is(err, ErrIndexUnknown):
			errorJSON(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, ErrIndexBusy):
			w.Header().Set("Retry-After", "1")
			errorJSON(w, http.StatusConflict, "%v", err)
		default:
			errorJSON(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"unloaded": name})
}

// loadRequest is the POST /indexes payload: either one named index
// ({"name", "path"}) or a shard-manifest subset ({"manifest", optional
// "shards" ids and "base" URL prefix}), which registers the conventional
// "s<id>.p"/"s<id>.q" names the router addresses. With "mutable": true the
// index loads live — path is the sealed base (or empty for an index born
// empty) and POST /indexes/{name}/points applies updates.
type loadRequest struct {
	Name     string `json:"name"`
	Path     string `json:"path"`
	Manifest string `json:"manifest"`
	Shards   []int  `json:"shards"`
	Base     string `json:"base"`

	Mutable         bool `json:"mutable"`
	CompactEvery    int  `json:"compact_every"`
	KeepGenerations int  `json:"keep_generations"`
}

func (s *Server) handleLoadIndex(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("indexes_load")
	var req loadRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	if req.Manifest != "" {
		if req.Name != "" || req.Path != "" {
			errorJSON(w, http.StatusBadRequest, "manifest loads take no name/path")
			return
		}
		loaded, err := s.LoadManifestShards(req.Manifest, req.Shards, req.Base)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrIndexExists) {
				status = http.StatusConflict
			}
			errorJSON(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"loaded": loaded})
		return
	}
	if req.Name == "" || (req.Path == "" && !req.Mutable) {
		errorJSON(w, http.StatusBadRequest, "name and path are required")
		return
	}
	var err error
	if req.Mutable {
		err = s.LoadMutableIndex(req.Name, req.Path, req.CompactEvery, req.KeepGenerations)
	} else {
		err = s.LoadIndex(req.Name, req.Path)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrIndexExists) {
			status = http.StatusConflict
		}
		errorJSON(w, status, "%v", err)
		return
	}
	e, _ := s.lookup(req.Name)
	writeJSON(w, http.StatusCreated, indexInfo{Name: req.Name, Points: e.ix.Len(), Path: req.Path,
		Backend: e.backend.String(), Generation: e.gen, Mutable: e.ix.Mutable()})
}

// remoteTotals sums the remote-transfer and readahead counters over every
// registered index plus the retired totals of unloaded ones (so the
// counters stay monotone), telling the remote-serving story: round trips,
// retries, bytes, and how much of it the prefetcher hid. remoteIndexes is a
// gauge: currently-registered remote indexes only.
func (s *Server) remoteTotals() (remote rcj.RemoteStats, prefetch rcj.PrefetchStats, remoteIndexes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	remote = s.retiredRemote
	prefetch = s.retiredPrefetch
	for _, e := range s.indexes {
		if rs, ok := e.ix.RemoteStats(); ok {
			remoteIndexes++
			remote.Add(rs)
		}
		if ps, ok := e.ix.PrefetchStats(); ok {
			prefetch.Add(ps)
		}
	}
	return remote, prefetch, remoteIndexes
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("join")
	var req JoinRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	if req.P == "" {
		errorJSON(w, http.StatusBadRequest, "p is required")
		return
	}
	if req.Self == (req.Q != "") {
		errorJSON(w, http.StatusBadRequest, `exactly one of "q" or "self" is required`)
		return
	}
	qry, csvFormat, err := req.Query()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Pin the indexes for the lifetime of the stream so a concurrent
	// DELETE /indexes/{name} cannot unmap pages a running traversal reads.
	// The join is (eQ.ix, eP.ix, qry): "self", like naming one index on both
	// sides, is the same entry twice.
	eP, ok := s.acquire(req.P)
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown index %q", req.P)
		return
	}
	defer s.release(eP)
	eQ, qName := eP, req.P
	if !req.Self {
		qName = req.Q
		if eQ, ok = s.acquire(qName); !ok {
			errorJSON(w, http.StatusNotFound, "unknown index %q", qName)
			return
		}
		defer s.release(eQ)
	}

	// Resolve the plan BEFORE the result cache is consulted: the cache key
	// embeds Canonical(), so cached entries are always keyed by the concrete
	// resolved plan, never by the ambiguous "planner decides" zero value.
	// The resolved query carries the decision through the scheduler and the
	// executor: this is the request's one planning step.
	qry, dec := qry.ResolvePlan(eQ.ix, eP.ix)
	s.recordPlan(dec)

	// Result cache: a bounded sequential query whose exact result set is
	// already memoized streams from memory — no slot, no traversal, no page
	// access. The key pins each index's registration generation, so a
	// same-name reload can never hit. Skipped while draining (hits bypass
	// admission control, and a draining server must say 503).
	var ckey string
	cacheOK := s.cache.cacheable(qry) && !s.sched.Draining()
	if cacheOK {
		ckey = cacheKey(req.P, eP.genKey(), qName, eQ.genKey(), qry)
		if res, ok := s.cache.get(ckey); ok {
			s.writeCachedJoin(w, res, csvFormat)
			return
		}
	}

	// The request context cancels when the client disconnects; that
	// propagates through the scheduler into the executor, aborting the join
	// and freeing its slot. An additional per-request cap stacks under the
	// scheduler's JoinTimeout.
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	var st rcj.Stats
	seq, err := s.sched.Run(ctx, eQ.ix, eP.ix, qry, &st)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}

	start := time.Now()
	out := NewJoinWriter(w, csvFormat)
	var collect []rcj.Pair // tee for the result cache on a miss
	for pr, err := range seq {
		if err != nil {
			out.Fail(map[string]string{"error": err.Error()})
			return
		}
		out.Pair(pr, nil)
		if cacheOK {
			collect = append(collect, pr)
		}
	}
	if cacheOK {
		// The stream completed cleanly while this handler held the indexes'
		// reference counts, so the generations in the key are still current:
		// safe to memoize.
		names := []string{req.P}
		if eQ != eP {
			names = append(names, qName)
		}
		s.cache.put(&cachedResult{key: ckey, names: names, pairs: collect, stats: st, plan: dec})
	}
	sum := newSummary(st, dec)
	sum.ElapsedMS = time.Since(start).Milliseconds()
	out.Summary(sum)
}

// writeCachedJoin replays a memoized result set: the identical pair lines a
// solo run of the query would stream (same bytes, same order), with the
// original run's statistics in the summary marked "cached".
func (s *Server) writeCachedJoin(w http.ResponseWriter, res *cachedResult, csvFormat bool) {
	out := NewJoinWriter(w, csvFormat)
	for _, pr := range res.pairs {
		out.Pair(pr, nil)
	}
	sum := newSummary(res.stats, res.plan)
	sum.Cached = true
	out.Summary(sum)
}

// writeAdmissionError maps scheduler rejections to backpressure statuses:
// 429 for overload and queue timeout (retryable), 503 while draining.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sched.ErrOverloaded), errors.Is(err, sched.ErrQueueTimeout):
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, sched.ErrDraining):
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
	default:
		errorJSON(w, http.StatusInternalServerError, "%v", err)
	}
}
