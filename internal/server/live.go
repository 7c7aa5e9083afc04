package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/rcj"
)

// liveInfo is the live-index block of one GET /indexes row: epoch state,
// delta/tombstone load, and how many continuous-query streams currently
// depend on the index.
type liveInfo struct {
	Epoch            uint64  `json:"epoch"`
	BasePoints       int     `json:"base_points"`
	DeltaPoints      int     `json:"delta_points"`
	Tombstones       int     `json:"tombstones"`
	Generation       string  `json:"generation,omitempty"`
	GenerationPoints int     `json:"generation_points,omitempty"`
	Inserts          int64   `json:"inserts"`
	Deletes          int64   `json:"deletes"`
	Compactions      int64   `json:"compactions"`
	CompactSeconds   float64 `json:"compact_seconds"`
	Subscribers      int     `json:"subscribers"`
}

// liveCounters aggregates the cumulative counters of live indexes for
// /metrics; retired totals of unloaded indexes fold in so the counters stay
// monotone across unload/reload cycles (same contract as the remote ones).
type liveCounters struct {
	inserts, deletes, batches int64
	compactions, compactFails int64
	compactSeconds            float64
	shedFeeds                 int64
	deltaPoints, tombstones   int // gauges, not folded into retired
	liveIndexes, subscribers  int // gauges
}

func (c *liveCounters) add(st rcj.LiveStats) {
	c.inserts += st.Inserts
	c.deletes += st.Deletes
	c.batches += st.Batches
	c.compactions += st.Compactions
	c.compactFails += st.CompactFailures
	c.compactSeconds += st.CompactSeconds
	c.shedFeeds += st.ShedFeeds
}

// liveTotals sums live counters over every registered mutable index plus the
// retired totals of unloaded ones.
func (s *Server) liveTotals() liveCounters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := s.retiredLive
	for _, e := range s.indexes {
		st, ok := e.ix.LiveStats()
		if !ok {
			continue
		}
		out.add(st)
		out.liveIndexes++
		out.deltaPoints += st.DeltaPoints
		out.tombstones += st.Tombstones
		out.subscribers += e.subs
	}
	return out
}

// LoadMutableIndex registers a live (mutable) index under name. A non-empty
// path opens the saved index there as the sealed base (compacted generations
// are persisted next to it as ".g<seq>" siblings); an empty path starts the
// index empty, with memory-only generations. compactEvery and keepGens map
// to rcj.MutableConfig; a failed background compaction is logged (and counted
// in /metrics), the index keeps serving.
func (s *Server) LoadMutableIndex(name, path string, compactEvery, keepGens int) error {
	cfg := rcj.MutableConfig{
		Index:           rcjIndexConfig(s.backend),
		CompactEvery:    compactEvery,
		KeepGenerations: keepGens,
		OnCompactError: func(err error) {
			s.logf("rcjd: live index %s: background compaction failed, still serving the uncompacted epoch: %v", name, err)
		},
	}
	var (
		ix  *rcj.Index
		err error
	)
	if path == "" {
		ix, err = s.sched.Engine().NewMutableIndex(nil, cfg)
	} else {
		ix, err = s.sched.Engine().OpenMutableIndex(path, cfg)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, taken := s.indexes[name]; taken {
		s.mu.Unlock()
		ix.Close()
		return fmt.Errorf("%w: %q", ErrIndexExists, name)
	}
	s.nextGen++
	s.indexes[name] = &indexEntry{ix: ix, path: path, backend: ix.Backend(), gen: s.nextGen}
	s.mu.Unlock()
	return nil
}

// mutateRequest is the POST /indexes/{name}/points payload: one atomic batch
// of inserts and deletes.
type mutateRequest struct {
	Insert []mutatePoint `json:"insert"`
	Delete []int64       `json:"delete"`
}

type mutatePoint struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// handleMutate serves POST /indexes/{name}/points: apply one batch of point
// insertions/deletions to a mutable index. The batch is atomic — any invalid
// member (duplicate insert ID, unknown delete ID, non-finite coordinate)
// rejects the whole batch with 400 and no state change; mutating an
// immutable index is 409.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("indexes_mutate")
	name := r.PathValue("name")
	var req mutateRequest
	if !decodeBody(w, r, maxMutationBody, &req) {
		return
	}
	// Pin the entry so a concurrent unload cannot close the index mid-batch.
	e, ok := s.acquire(name)
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown index %q", name)
		return
	}
	defer s.release(e)
	ins := make([]rcj.Point, len(req.Insert))
	for i, p := range req.Insert {
		ins[i] = rcj.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	seq, err := e.ix.ApplyBatch(ins, req.Delete)
	if err != nil {
		switch {
		case errors.Is(err, rcj.ErrImmutableIndex):
			errorJSON(w, http.StatusConflict, "index %q is immutable: load it with \"mutable\": true to accept updates", name)
		case errors.Is(err, rcj.ErrDuplicateID), errors.Is(err, rcj.ErrUnknownID), errors.Is(err, rcj.ErrBadPoint):
			errorJSON(w, http.StatusBadRequest, "%v", err)
		default:
			errorJSON(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":    seq,
		"inserted": len(req.Insert),
		"deleted":  len(req.Delete),
	})
}

// subscribeRequest is the POST /subscribe payload. Exactly one of {"q"} or
// {"self": true} selects the join shape, mirroring POST /join; at least one
// side must be a mutable index.
type subscribeRequest struct {
	P    string `json:"p"`
	Q    string `json:"q"`
	Self bool   `json:"self"`
	// Buffer bounds both the event channel and the per-subscription update
	// feed (default 256). A consumer that falls behind it is shed.
	Buffer int `json:"buffer"`
	// MaxEvents, when > 0, ends the stream cleanly after that many event
	// lines — deterministic consumption for scripts and smoke tests.
	MaxEvents int `json:"max_events"`
}

// subscribeEvent is one NDJSON line of a /subscribe stream.
type subscribeEvent struct {
	Event string `json:"event"`
	Seq   uint64 `json:"seq,omitempty"`
	// Pair payload (add/remove events).
	PID    *int64  `json:"p_id,omitempty"`
	QID    *int64  `json:"q_id,omitempty"`
	CX     float64 `json:"cx,omitempty"`
	CY     float64 `json:"cy,omitempty"`
	Radius float64 `json:"r,omitempty"`
	// Result-set size (sync events).
	Pairs *int `json:"pairs,omitempty"`
	// Why the stream ended (end events): "closed", "slow_consumer",
	// "cancelled", "max_events", or an error string.
	Reason string `json:"reason,omitempty"`
}

// handleSubscribe serves POST /subscribe: a long-lived NDJSON stream of
// exact result-set changes for one continuous query. The stream opens with a
// full replay of the current result set (add… sync), then delivers
// incremental add/remove events as mutation batches apply; a deletion forces
// a "resync" (discard replayed state, full state follows). The subscription
// registers with the scheduler as long-lived admitted work: a draining
// server rejects new subscriptions with 503 and cancels running ones so
// SIGTERM terminates.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.requests.inc("subscribe")
	var req subscribeRequest
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
	buf := req.Buffer
	if buf <= 0 {
		buf = 256
	}

	// Pin the indexes for the stream's lifetime (an unload would close the
	// live index under the monitor) and count the subscriber for /indexes.
	eP, ok := s.acquire(req.P)
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown index %q", req.P)
		return
	}
	defer s.release(eP)
	eQ := eP
	if !req.Self {
		if eQ, ok = s.acquire(req.Q); !ok {
			errorJSON(w, http.StatusNotFound, "unknown index %q", req.Q)
			return
		}
		defer s.release(eQ)
	}
	if !eP.ix.Mutable() && !eQ.ix.Mutable() {
		errorJSON(w, http.StatusConflict, "subscription requires at least one mutable index")
		return
	}

	// Register as long-lived work: the scheduler cancels sctx on drain and
	// waits for unregister, so a daemon with open subscriptions still drains.
	sctx, unregister, err := s.sched.Subscribe(r.Context())
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer unregister()

	sub, err := rcj.SubscribeLive(sctx, eQ.ix, eP.ix, buf)
	if err != nil {
		if errors.Is(err, rcj.ErrImmutableIndex) {
			errorJSON(w, http.StatusConflict, "%v", err)
		} else {
			errorJSON(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	defer sub.Close()
	s.addSubscriber(eP, eQ, 1)
	defer s.addSubscriber(eP, eQ, -1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev subscribeEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	sent := 0
	for ev := range sub.C {
		line := subscribeEvent{Event: string(ev.Type), Seq: ev.Seq}
		switch ev.Type {
		case rcj.EventAdd, rcj.EventRemove:
			pid, qid := ev.Pair.P.ID, ev.Pair.Q.ID
			line.PID, line.QID = &pid, &qid
			line.CX, line.CY = ev.Pair.Center.X, ev.Pair.Center.Y
			line.Radius = ev.Pair.Radius
		case rcj.EventSync:
			pairs := ev.Pairs
			line.Pairs = &pairs
		}
		if !emit(line) {
			return
		}
		sent++
		if req.MaxEvents > 0 && sent >= req.MaxEvents {
			emit(subscribeEvent{Event: "end", Reason: "max_events"})
			return
		}
	}
	reason := "closed"
	switch {
	case errors.Is(sub.Err(), rcj.ErrSlowSubscriber):
		reason = "slow_consumer"
	case sub.Err() != nil:
		reason = sub.Err().Error()
	case sctx.Err() != nil:
		reason = "cancelled"
	}
	emit(subscribeEvent{Event: "end", Reason: reason})
}

// addSubscriber adjusts the per-index subscriber gauges (both sides of a
// two-index subscription; once for self-joins).
func (s *Server) addSubscriber(eP, eQ *indexEntry, d int) {
	s.mu.Lock()
	eP.subs += d
	if eQ != eP {
		eQ.subs += d
	}
	s.mu.Unlock()
}
