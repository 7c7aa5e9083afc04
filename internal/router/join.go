// Scatter-gather POST /join: planning, sub-query dispatch with retries and
// bounded fan-out, streaming merge with boundary dedup, global top-k with
// bound republication, typed partial-failure reporting.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// row is one worker result: the parsed fields plus the original NDJSON
// line, forwarded verbatim to NDJSON clients.
type row struct {
	line server.PairLine
	raw  []byte // includes the trailing '\n'
}

// routerSummary terminates a successful NDJSON stream: worker statistics
// summed across sub-queries (Results is the router's own count, after
// boundary dedup and the global limit), plus the router's planning and
// merge counters for this request.
type routerSummary struct {
	server.Counts
	ShardsContacted  int   `json:"shards_contacted"`
	ShardsPruned     int   `json:"shards_pruned"`
	SubqueryRetries  int64 `json:"subquery_retries"`
	DedupDropped     int64 `json:"dedup_dropped"`
	BoundTightenings int64 `json:"bound_tightenings"`
	ElapsedMS        int64 `json:"elapsed_ms"`
}

// streamError is the typed in-band failure record appended to an NDJSON
// stream whose status line is already gone.
type streamError struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Shard  int    `json:"shard"`
	Worker string `json:"worker,omitempty"`
}

// subError identifies which shard's sub-query failed, and where.
type subError struct {
	shard  int
	worker string
	err    error
}

func (e *subError) Error() string {
	return fmt.Sprintf("shard %d (worker %s): %v", e.shard, e.worker, e.err)
}

// errStopStream aborts a worker stream on purpose (limit satisfied or
// client gone); it is a clean end, not a sub-query failure.
var errStopStream = errors.New("router: stream stopped")

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	fail := func(status int, code, msg string, extras map[string]any) {
		rt.m.joinErrors.Add(1)
		errorBody(w, status, code, msg, extras)
	}
	var req server.JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request body: %v", err), nil)
		return
	}
	// The router fronts exactly one sharded dataset; the client addresses
	// it by the conventional names a single server would use ("p"/"q"), or
	// leaves them empty.
	if rt.man.Self {
		if !req.Self || req.Q != "" {
			fail(http.StatusBadRequest, "bad_request",
				fmt.Sprintf("manifest %q is a self-join dataset: set self=true and no q", rt.man.Name), nil)
			return
		}
	} else {
		if req.Self {
			fail(http.StatusBadRequest, "bad_request",
				fmt.Sprintf("manifest %q is a two-set dataset: self must be false", rt.man.Name), nil)
			return
		}
		if req.Q != "" && req.Q != "q" {
			fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown index %q", req.Q), nil)
			return
		}
	}
	if req.P != "" && req.P != "p" {
		fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown index %q", req.P), nil)
		return
	}
	// The query fields mean what they mean to a worker: one shared check.
	qry, csvFormat, err := req.Query()
	if err != nil {
		fail(http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	// "" / "auto" lets each worker's planner pick per shard — shards differ
	// in size, so one request can legitimately run OBJ on a dense shard and
	// brute on a near-empty one — unless the router is pinned to the classic
	// fixed default.
	if req.Alg == "" && rt.cfg.FixedPlan {
		req.Alg = "obj"
	}
	// The diameter bound is the sharding contract: the overlap margin only
	// guarantees shard-local completeness for pairs at most MaxDiameter
	// wide. An unbounded query inherits the manifest's bound; a looser one
	// cannot be answered correctly and is refused with a typed error.
	switch {
	case req.MaxDiameter == 0:
		req.MaxDiameter = rt.man.MaxDiameter
	case req.MaxDiameter > rt.man.MaxDiameter:
		fail(http.StatusBadRequest, "max_diameter_exceeds_manifest",
			fmt.Sprintf("max_diameter %g exceeds the manifest's shard bound %g", req.MaxDiameter, rt.man.MaxDiameter),
			map[string]any{"max_diameter": rt.man.MaxDiameter})
		return
	}
	var region *shard.Rect
	if w := qry.Region; w != nil {
		region = &shard.Rect{w.MinX, w.MinY, w.MaxX, w.MaxY}
	}

	subs, pruned := rt.plan(region)
	rt.m.shardsPruned.Add(int64(pruned))
	rt.m.shardsContacted.Add(int64(len(subs)))

	if req.TopK > 0 {
		rt.gatherJoin(r.Context(), w, &req, subs, pruned, csvFormat)
	} else {
		rt.streamJoin(r.Context(), w, &req, subs, pruned, csvFormat)
	}
}

// subRequest derives the per-shard worker request: conventional shard index
// names, the clipped cell as the region (ownership), always NDJSON, and the
// current diameter bound.
func (rt *Router) subRequest(req *server.JoinRequest, sub subQuery, bound float64) *server.JoinRequest {
	sr := &server.JoinRequest{
		Alg:         req.Alg,
		Parallelism: req.Parallelism,
		TimeoutMS:   req.TimeoutMS,
		Format:      "ndjson",
		MaxDiameter: bound,
		MinDistance: req.MinDistance,
		TopK:        req.TopK,
		Limit:       req.Limit,
		Region:      []float64{sub.region[0], sub.region[1], sub.region[2], sub.region[3]},
	}
	if rt.man.Self {
		sr.P, sr.Self = shard.IndexName(sub.shardID, "p"), true
	} else {
		sr.P, sr.Q = shard.IndexName(sub.shardID, "p"), shard.IndexName(sub.shardID, "q")
	}
	return sr
}

// suspect reports whether a row could have been emitted by more than one
// shard: its center bit-equals an interior grid cut in some axis. Workers
// evaluate the closed region test on the exact same float64s (NDJSON
// round-trips them bit-exactly), so this is a precise test, not a tolerance.
func (rt *Router) suspect(l server.PairLine) bool {
	if _, ok := rt.xCuts[l.CX]; ok {
		return true
	}
	_, ok := rt.yCuts[l.CY]
	return ok
}

// fetchSub performs one sub-query attempt and decodes the worker stream:
// rows go to onRow, the summary is returned. A non-nil error means the
// shard's answer is incomplete (unless it is errStopStream, a deliberate
// local abort).
func (rt *Router) fetchSub(ctx context.Context, url string, body *server.JoinRequest, onRow func(row) error) (*server.Summary, error) {
	rt.m.subqueries.Add(1)
	rt.m.perWorker[url].Add(1)
	if rt.cfg.SubTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.SubTimeout)
		defer cancel()
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/join", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("worker status %d: %s", resp.StatusCode, e.Error)
		}
		return nil, fmt.Errorf("worker status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var summary *server.Summary
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		switch {
		case bytes.HasPrefix(line, []byte(`{"p_id":`)):
			if summary != nil {
				return nil, errors.New("row after summary in worker stream")
			}
			var pl server.PairLine
			if err := json.Unmarshal(line, &pl); err != nil {
				return nil, fmt.Errorf("bad result row %.120q: %v", line, err)
			}
			raw := make([]byte, 0, len(line)+1)
			raw = append(append(raw, line...), '\n')
			if err := onRow(row{line: pl, raw: raw}); err != nil {
				return nil, err
			}
		case bytes.HasPrefix(line, []byte(`{"summary":`)):
			var s struct {
				Summary server.Summary `json:"summary"`
			}
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("bad summary line: %v", err)
			}
			summary = &s.Summary
		case bytes.HasPrefix(line, []byte(`{"error":`)):
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, fmt.Errorf("bad error line: %v", err)
			}
			return nil, fmt.Errorf("worker join failed: %s", e.Error)
		default:
			return nil, fmt.Errorf("unrecognized stream line %.120q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if summary == nil {
		// A clean NDJSON stream always ends with a summary; its absence
		// means the connection was cut mid-answer.
		return nil, errors.New("truncated worker stream (no summary)")
	}
	return summary, nil
}

// addCounts sums one worker summary into a request's totals, under the
// caller's lock. Results is not summed: the router counts what it emits.
func addCounts(a *server.Counts, s *server.Summary) {
	if s == nil {
		return
	}
	a.Candidates += s.Candidates
	a.NodeAccesses += s.NodeAccesses
	a.PageFaults += s.PageFaults
	a.NodesPruned += s.NodesPruned
	a.BoundKilled += s.BoundKilled
}

// ---------------------------------------------------------------------------
// Streaming path (no top-k): rows forward to the client as workers produce
// them, interleaved across shards, with boundary dedup and a global limit.

type streamSink struct {
	rt      *Router
	w       http.ResponseWriter
	flusher http.Flusher
	csv     bool
	cancel  context.CancelFunc

	mu       sync.Mutex
	started  bool // response header written
	dead     bool // client write failed; stop producing
	hitLimit bool
	limit    int64
	emitted  int64
	dropped  int64                 // boundary duplicates dropped (this request)
	retries  int64                 // sub-query retries (this request)
	seen     map[[2]int64]struct{} // boundary-suspect pairs already forwarded
	stats    server.Counts
	buf      []byte // CSV re-encode scratch, reused under mu
}

func (sk *streamSink) writeHeaderLocked() {
	if sk.started {
		return
	}
	if sk.csv {
		sk.w.Header().Set("Content-Type", "text/csv")
	} else {
		sk.w.Header().Set("Content-Type", "application/x-ndjson")
	}
	sk.w.WriteHeader(http.StatusOK)
	sk.started = true
}

func (sk *streamSink) flushLocked() {
	if sk.flusher != nil {
		sk.flusher.Flush()
	}
}

// emit forwards one worker row. wrote reports whether bytes reached the
// client (a forwarded shard stream can no longer fail over); stop asks the
// producing stream to end (limit satisfied or client gone).
func (sk *streamSink) emit(rw row) (wrote, stop bool) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.hitLimit || sk.dead {
		return false, true
	}
	if sk.rt.suspect(rw.line) {
		key := [2]int64{rw.line.PID, rw.line.QID}
		if _, dup := sk.seen[key]; dup {
			sk.dropped++
			sk.rt.m.dedupDropped.Add(1)
			return false, false
		}
		sk.seen[key] = struct{}{}
	}
	sk.writeHeaderLocked()
	out := rw.raw
	if sk.csv {
		sk.buf = server.AppendPairCSV(sk.buf[:0], rw.line.Pair())
		out = sk.buf
	}
	if _, err := sk.w.Write(out); err != nil {
		sk.dead = true
		sk.cancel()
		return false, true
	}
	sk.rt.m.pairsEmitted.Add(1)
	sk.emitted++
	sk.flushLocked()
	if sk.limit > 0 && sk.emitted >= sk.limit {
		sk.hitLimit = true
		sk.cancel()
		return true, true
	}
	return true, false
}

func (sk *streamSink) ended() bool {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.hitLimit || sk.dead
}

func (rt *Router) streamJoin(ctx context.Context, w http.ResponseWriter, req *server.JoinRequest, subs []subQuery, pruned int, csvFormat bool) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	flusher, _ := w.(http.Flusher)
	sink := &streamSink{
		rt: rt, w: w, flusher: flusher, csv: csvFormat, cancel: cancel,
		limit: int64(req.Limit), seen: map[[2]int64]struct{}{},
	}

	var firstFail *subError
	var failMu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, rt.cfg.Fanout)
	for _, sub := range subs {
		wg.Add(1)
		go func(sub subQuery) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			if serr := rt.streamSub(ctx, sub, req, sink); serr != nil {
				failMu.Lock()
				// A deliberate local end (limit, client gone) or a failure
				// after one is already recorded is not a new incident.
				if firstFail == nil && !sink.ended() {
					firstFail = serr
					rt.m.failures.Add(1)
					cancel()
				}
				failMu.Unlock()
			}
		}(sub)
	}
	wg.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	rt.m.retries.Add(sink.retries)
	if firstFail != nil {
		rt.m.joinErrors.Add(1)
		rt.logf("router: join failed: %v", firstFail)
		if !sink.started {
			sink.mu.Unlock()
			errorBody(w, http.StatusBadGateway, "shard_failure", firstFail.err.Error(),
				map[string]any{"shard": firstFail.shard, "worker": firstFail.worker})
			sink.mu.Lock()
			return
		}
		// The status line is gone; NDJSON clients get a typed in-band error,
		// CSV streams simply truncate (same contract as a single rcjd).
		if !csvFormat {
			line, _ := json.Marshal(streamError{
				Error: firstFail.err.Error(), Code: "shard_failure",
				Shard: firstFail.shard, Worker: firstFail.worker,
			})
			sink.w.Write(append(line, '\n'))
		}
		sink.flushLocked()
		return
	}
	sink.writeHeaderLocked()
	if !csvFormat {
		sink.stats.Results = sink.emitted
		sum := routerSummary{
			Counts:          sink.stats,
			ShardsContacted: len(subs),
			ShardsPruned:    pruned,
			SubqueryRetries: sink.retries,
			DedupDropped:    sink.dropped,
			ElapsedMS:       time.Since(start).Milliseconds(),
		}
		line, _ := json.Marshal(map[string]routerSummary{"summary": sum})
		sink.w.Write(append(line, '\n'))
	}
	sink.flushLocked()
}

// streamSub answers one shard with failover: attempts rotate through the
// shard's owners, but only while nothing of this shard's stream has been
// forwarded to the client (a half-forwarded stream cannot restart without
// duplicating rows).
func (rt *Router) streamSub(ctx context.Context, sub subQuery, req *server.JoinRequest, sink *streamSink) *subError {
	owners := rt.owners[sub.shardID]
	start := int(rt.rr.Add(1)-1) % len(owners)
	attempts := rt.cfg.Retries + 1
	var lastErr error
	lastURL := owners[start]
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		url := owners[(start+a)%len(owners)]
		forwarded := false
		sum, err := rt.fetchSub(ctx, url, rt.subRequest(req, sub, req.MaxDiameter), func(rw row) error {
			wrote, stop := sink.emit(rw)
			if wrote {
				forwarded = true
			}
			if stop {
				return errStopStream
			}
			return nil
		})
		if err == nil || errors.Is(err, errStopStream) {
			sink.mu.Lock()
			addCounts(&sink.stats, sum)
			sink.mu.Unlock()
			return nil
		}
		lastErr, lastURL = err, url
		if forwarded {
			break // rows already with the client: no transparent failover
		}
		if a+1 < attempts && ctx.Err() == nil {
			sink.mu.Lock()
			sink.retries++
			sink.mu.Unlock()
			rt.logf("router: shard %d attempt on %s failed (%v), retrying", sub.shardID, url, err)
		}
	}
	return &subError{shard: sub.shardID, worker: lastURL, err: lastErr}
}

// ---------------------------------------------------------------------------
// Gather path (top-k): per-shard local top-k sets merge under the engine's
// deterministic ranking; each completed shard tightens the global diameter
// bound, which later-dispatched sub-queries inherit (fan-out is bounded, so
// with more shards than slots the tightening reaches real work).

type gatherState struct {
	mu    sync.Mutex
	rows  []row // deduped, kept sorted+trimmed to k once it first fills
	seen  map[[2]int64]struct{}
	stats server.Counts

	retries int64
	dropped int64
	tight   int64

	bound atomic.Uint64 // float64 bits of the current diameter bound
}

func (rt *Router) gatherJoin(ctx context.Context, w http.ResponseWriter, req *server.JoinRequest, subs []subQuery, pruned int, csvFormat bool) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &gatherState{seen: map[[2]int64]struct{}{}}
	st.bound.Store(math.Float64bits(req.MaxDiameter))

	var firstFail *subError
	var failMu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, rt.cfg.Fanout)
	for _, sub := range subs {
		wg.Add(1)
		go func(sub subQuery) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			if serr := rt.gatherSub(ctx, sub, req, st); serr != nil {
				failMu.Lock()
				if firstFail == nil {
					firstFail = serr
					rt.m.failures.Add(1)
					cancel()
				}
				failMu.Unlock()
			}
		}(sub)
	}
	wg.Wait()

	rt.m.retries.Add(st.retries)
	if firstFail != nil {
		// Nothing has been written (the gather buffers), so the failure is
		// always a clean typed status, never a truncated 200.
		rt.m.joinErrors.Add(1)
		rt.logf("router: top-k join failed: %v", firstFail)
		errorBody(w, http.StatusBadGateway, "shard_failure", firstFail.err.Error(),
			map[string]any{"shard": firstFail.shard, "worker": firstFail.worker})
		return
	}

	sortRows(st.rows)
	n := req.TopK
	if req.Limit > 0 && req.Limit < n {
		n = req.Limit
	}
	if len(st.rows) > n {
		st.rows = st.rows[:n]
	}
	if csvFormat {
		w.Header().Set("Content-Type", "text/csv")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	var buf []byte
	for _, rw := range st.rows {
		if csvFormat {
			buf = server.AppendPairCSV(buf[:0], rw.line.Pair())
			w.Write(buf)
		} else {
			w.Write(rw.raw)
		}
	}
	rt.m.pairsEmitted.Add(int64(len(st.rows)))
	if !csvFormat {
		st.stats.Results = int64(len(st.rows))
		sum := routerSummary{
			Counts:           st.stats,
			ShardsContacted:  len(subs),
			ShardsPruned:     pruned,
			SubqueryRetries:  st.retries,
			DedupDropped:     st.dropped,
			BoundTightenings: st.tight,
			ElapsedMS:        time.Since(start).Milliseconds(),
		}
		line, _ := json.Marshal(map[string]routerSummary{"summary": sum})
		w.Write(append(line, '\n'))
	}
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// gatherSub collects one shard's local top-k. Nothing is forwarded until
// every shard answers, so failover is always transparent here; each attempt
// restarts with an empty local buffer.
func (rt *Router) gatherSub(ctx context.Context, sub subQuery, req *server.JoinRequest, st *gatherState) *subError {
	owners := rt.owners[sub.shardID]
	start := int(rt.rr.Add(1)-1) % len(owners)
	attempts := rt.cfg.Retries + 1
	var lastErr error
	lastURL := owners[start]
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		url := owners[(start+a)%len(owners)]
		body := rt.subRequest(req, sub, math.Float64frombits(st.bound.Load()))
		var local []row
		sum, err := rt.fetchSub(ctx, url, body, func(rw row) error {
			local = append(local, rw)
			return nil
		})
		if err == nil {
			st.merge(rt, req.TopK, local, sum)
			return nil
		}
		lastErr, lastURL = err, url
		if a+1 < attempts && ctx.Err() == nil {
			st.mu.Lock()
			st.retries++
			st.mu.Unlock()
			rt.logf("router: shard %d attempt on %s failed (%v), retrying", sub.shardID, url, err)
		}
	}
	return &subError{shard: sub.shardID, worker: lastURL, err: lastErr}
}

// merge folds one shard's answer into the running top-k and republishes a
// tightened diameter bound when the k-th best so far improved on it. Dedup
// must precede the k-th lookup: a boundary pair counted twice would fake a
// tighter k-th radius and over-prune later shards.
func (st *gatherState) merge(rt *Router, k int, local []row, sum *server.Summary) {
	st.mu.Lock()
	defer st.mu.Unlock()
	addCounts(&st.stats, sum)
	for _, rw := range local {
		if rt.suspect(rw.line) {
			key := [2]int64{rw.line.PID, rw.line.QID}
			if _, dup := st.seen[key]; dup {
				st.dropped++
				rt.m.dedupDropped.Add(1)
				continue
			}
			st.seen[key] = struct{}{}
		}
		st.rows = append(st.rows, rw)
	}
	if len(st.rows) < k {
		return
	}
	sortRows(st.rows)
	st.rows = st.rows[:k] // beyond-k rows can never re-enter under the same total order
	// Every pair still missing is at most as tight as the current k-th, so
	// its diameter is bounded by twice that radius (exact: *2 only shifts
	// the exponent). A zero k-th radius cannot be republished — the wire
	// format reads max_diameter 0 as "unbounded".
	newBound := 2 * st.rows[k-1].line.Radius
	if newBound > 0 && newBound < math.Float64frombits(st.bound.Load()) {
		st.bound.Store(math.Float64bits(newBound))
		st.tight++
		rt.m.boundTightenings.Add(1)
	}
}
