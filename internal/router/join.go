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

// maxRequestBody bounds the /join body the router will read; a join request
// is a few hundred bytes.
const maxRequestBody = 1 << 20

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
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			fail(http.StatusRequestEntityTooLarge, "request_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), nil)
		} else {
			fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request body: %v", err), nil)
		}
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
	// "" / "auto" lets each worker's planner pick per shard: shards differ in
	// size, so one request can legitimately run OBJ on a dense shard and
	// brute on a near-empty one.
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

	rt.answerJoin(r.Context(), w, &req, subs, pruned, csvFormat)
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
// rows, parsed by server.ParsePairNDJSON, go to onRow, the summary is
// returned. A non-nil error means the shard's answer is incomplete (unless
// it is errStopStream, a deliberate local abort).
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
			pl, err := server.ParsePairNDJSON(line)
			if err != nil {
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

// merger is what one request does with the rows its sub-queries return.
// Without top-k a row is forwarded the moment it arrives, interleaved across
// shards, under boundary dedup and the global limit. With top-k a sub-query
// attempt holds its rows until it completes; completed answers merge under
// the engine's deterministic ranking, and each merge may tighten the
// diameter bound later-dispatched sub-queries carry (fan-out is bounded, so
// with more shards than slots the tightening reaches real work).
type merger struct {
	rt     *Router
	out    *server.JoinWriter
	cancel context.CancelFunc
	k      int // top-k size; 0 = forward rows as they arrive
	limit  int // global row limit (0 = none): forwarding stops at it, a top-k answer is cut to it

	mu      sync.Mutex
	seen    map[[2]int64]struct{} // boundary-suspect pairs already accepted
	stats   server.Counts
	retries int64 // sub-query retries (this request)
	dropped int64 // boundary duplicates dropped (this request)
	tight   int64 // bound tightenings republished (this request)
	emitted int64 // rows forwarded so far
	ended   bool  // limit satisfied or client gone: stop producing
	held    []row // top-k: deduped, kept sorted+trimmed to k once it first fills

	bound atomic.Uint64 // float64 bits of the current diameter bound
}

// attempt is one try at one shard: the rows it holds back for the merge, or
// whether any of its rows already reached the client — after which the shard
// can no longer fail over (a half-forwarded stream cannot restart without
// duplicating rows).
type attempt struct {
	held      []row
	forwarded bool
}

// duplicate reports — and counts — a boundary row some other shard already
// delivered. Caller holds m.mu.
func (m *merger) duplicate(rw row) bool {
	if !m.rt.suspect(rw.line) {
		return false
	}
	key := [2]int64{rw.line.PID, rw.line.QID}
	if _, dup := m.seen[key]; dup {
		m.dropped++
		m.rt.m.dedupDropped.Add(1)
		return true
	}
	m.seen[key] = struct{}{}
	return false
}

// row takes one worker row: held for the merge under top-k, otherwise
// forwarded now (the JoinWriter decides when it is flushed). errStopStream
// asks the producing stream to end (limit satisfied or client gone).
func (m *merger) row(at *attempt, rw row) error {
	if m.k > 0 {
		at.held = append(at.held, rw)
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ended {
		return errStopStream
	}
	if m.duplicate(rw) {
		return nil
	}
	if err := m.out.Pair(rw.line.Pair(), rw.raw); err != nil {
		m.ended = true
		m.cancel()
		return errStopStream
	}
	at.forwarded = true
	m.rt.m.pairsEmitted.Add(1)
	m.emitted++
	if m.limit > 0 && m.emitted >= int64(m.limit) {
		m.ended = true
		m.cancel()
		return errStopStream
	}
	return nil
}

// commit folds one completed attempt into the request: its work counters
// and, under top-k, its rows — republishing a tightened diameter bound when
// the k-th best so far improved on it. Dedup must precede the k-th lookup: a
// boundary pair counted twice would fake a tighter k-th radius and
// over-prune later shards.
func (m *merger) commit(at *attempt, sum *server.Summary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	addCounts(&m.stats, sum)
	for _, rw := range at.held {
		if !m.duplicate(rw) {
			m.held = append(m.held, rw)
		}
	}
	if m.k == 0 || len(m.held) < m.k {
		return
	}
	sortRows(m.held)
	m.held = m.held[:m.k] // beyond-k rows can never re-enter under the same total order
	// Every pair still missing is at most as tight as the current k-th, so
	// its diameter is bounded by twice that radius (exact: *2 only shifts
	// the exponent). A zero k-th radius cannot be republished — the wire
	// format reads max_diameter 0 as "unbounded".
	newBound := 2 * m.held[m.k-1].line.Radius
	if newBound > 0 && newBound < math.Float64frombits(m.bound.Load()) {
		m.bound.Store(math.Float64bits(newBound))
		m.tight++
		m.rt.m.boundTightenings.Add(1)
	}
}

// scatter answers every planned shard through m, at most Fanout at a time,
// and returns the first shard failure (nil when every shard answered or the
// request ended on purpose).
func (rt *Router) scatter(ctx context.Context, req *server.JoinRequest, subs []subQuery, m *merger) *subError {
	var firstFail *subError
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
			if serr := rt.answerShard(ctx, req, sub, m); serr != nil {
				m.mu.Lock()
				// A deliberate local end (limit, client gone) or a failure
				// after one is already recorded is not a new incident.
				if firstFail == nil && !m.ended {
					firstFail = serr
					rt.m.failures.Add(1)
					m.cancel()
				}
				m.mu.Unlock()
			}
		}(sub)
	}
	wg.Wait()
	return firstFail
}

// answerShard answers one shard with failover: attempts rotate through the
// shard's owners, but only while nothing of this shard's stream has been
// forwarded to the client. Each attempt carries the diameter bound current
// when it is dispatched.
func (rt *Router) answerShard(ctx context.Context, req *server.JoinRequest, sub subQuery, m *merger) *subError {
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
		var at attempt
		body := rt.subRequest(req, sub, math.Float64frombits(m.bound.Load()))
		sum, err := rt.fetchSub(ctx, url, body, func(rw row) error { return m.row(&at, rw) })
		if err == nil || errors.Is(err, errStopStream) {
			m.commit(&at, sum)
			return nil
		}
		lastErr, lastURL = err, url
		if at.forwarded {
			break // rows already with the client: no transparent failover
		}
		if a+1 < attempts && ctx.Err() == nil {
			m.mu.Lock()
			m.retries++
			m.mu.Unlock()
			rt.logf("router: shard %d attempt on %s failed (%v), retrying", sub.shardID, url, err)
		}
	}
	return &subError{shard: sub.shardID, worker: lastURL, err: lastErr}
}

// answerJoin scatters the request and writes the merged response.
func (rt *Router) answerJoin(ctx context.Context, w http.ResponseWriter, req *server.JoinRequest, subs []subQuery, pruned int, csvFormat bool) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := server.NewJoinWriter(w, csvFormat)
	m := &merger{rt: rt, out: out, cancel: cancel, k: req.TopK, limit: req.Limit,
		seen: map[[2]int64]struct{}{}}
	m.bound.Store(math.Float64bits(req.MaxDiameter))

	fail := rt.scatter(ctx, req, subs, m)
	// Every sub-query goroutine has returned: m is this goroutine's alone.
	rt.m.retries.Add(m.retries)
	if fail != nil {
		rt.m.joinErrors.Add(1)
		rt.logf("router: join failed: %v", fail)
		if !out.Started() {
			// Nothing reached the client (a top-k gather never writes before
			// every shard answered): a clean typed status.
			errorBody(w, http.StatusBadGateway, "shard_failure", fail.err.Error(),
				map[string]any{"shard": fail.shard, "worker": fail.worker})
			return
		}
		out.Fail(streamError{Error: fail.err.Error(), Code: "shard_failure", Shard: fail.shard, Worker: fail.worker})
		return
	}
	if m.k > 0 {
		sortRows(m.held)
		n := m.k
		if m.limit > 0 && m.limit < n {
			n = m.limit
		}
		if len(m.held) > n {
			m.held = m.held[:n]
		}
		for _, rw := range m.held {
			out.Pair(rw.line.Pair(), rw.raw)
		}
		m.emitted = int64(len(m.held))
		rt.m.pairsEmitted.Add(m.emitted)
	}
	m.stats.Results = m.emitted
	out.Summary(routerSummary{
		Counts:           m.stats,
		ShardsContacted:  len(subs),
		ShardsPruned:     pruned,
		SubqueryRetries:  m.retries,
		DedupDropped:     m.dropped,
		BoundTightenings: m.tight,
		ElapsedMS:        time.Since(start).Milliseconds(),
	})
}
