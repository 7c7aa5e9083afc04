package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/rcj"
)

// The POST /join wire format, defined once: rcjd serves it, and rcjrouter
// both accepts it from clients and speaks it to its workers. The request
// body, the NDJSON result row, the summary line, the function that turns a
// request into the query it asks for and the writer every response goes
// through all live here, so the two tiers cannot drift apart.

// JoinRequest is the POST /join payload. Exactly one of {"q"} or
// {"self": true} names the other side; "self", like naming p again as q, is
// the self-join of p. The predicate fields are
// pushed down into the index traversal — a top-k request prunes the join
// instead of computing it fully and truncating.
type JoinRequest struct {
	P         string `json:"p"`
	Q         string `json:"q,omitempty"`
	Self      bool   `json:"self,omitempty"`
	Alg       string `json:"alg,omitempty"`        // "auto" (default), "inj", "obj", "brute"
	TimeoutMS int64  `json:"timeout_ms,omitempty"` // per-request cap under the server's JoinTimeout
	Format    string `json:"format,omitempty"`     // "ndjson" (default) or "csv"

	MaxDiameter float64   `json:"max_diameter,omitempty"` // > 0: only pairs at most this wide
	MinDistance float64   `json:"min_distance,omitempty"` // > 0: drop pairs tighter than this
	TopK        int       `json:"top_k,omitempty"`        // > 0: the k tightest pairs, ascending
	Limit       int       `json:"limit,omitempty"`        // > 0: stop after this many pairs
	Region      []float64 `json:"region,omitempty"`       // [min_x, min_y, max_x, max_y] window on the circle center
}

// algorithms maps the wire names to algorithms. "" and "auto" leave the
// choice to the cost-based planner; a named algorithm is forced verbatim.
var algorithms = map[string]rcj.Algorithm{"": 0, "auto": 0, "obj": rcj.OBJ, "inj": rcj.INJ, "brute": rcj.Brute}

// Query validates the request's query fields and compiles them into the
// rcj.Query they ask for, and reports whether the response format is CSV
// (NDJSON otherwise). The index names and Self are left to the caller: rcjd
// resolves them in its registry, rcjrouter against its manifest.
func (r *JoinRequest) Query() (qry rcj.Query, csv bool, err error) {
	alg, ok := algorithms[r.Alg]
	if !ok {
		return qry, false, fmt.Errorf("unknown algorithm %q (want auto, inj, obj, or brute)", r.Alg)
	}
	switch r.Format {
	case "", "ndjson":
	case "csv":
		csv = true
	default:
		return qry, false, fmt.Errorf("unknown format %q (want ndjson or csv)", r.Format)
	}
	qry = rcj.Query{
		Algorithm:      alg,
		ForceAlgorithm: r.Alg != "" && r.Alg != "auto",
		MaxDiameter:    r.MaxDiameter,
		MinDistance:    r.MinDistance,
		TopK:           r.TopK,
		Limit:          r.Limit,
	}
	if len(r.Region) > 0 {
		if len(r.Region) != 4 {
			return qry, false, fmt.Errorf("region must be [min_x, min_y, max_x, max_y], got %d values", len(r.Region))
		}
		qry.Region = &rcj.Rect{MinX: r.Region[0], MinY: r.Region[1], MaxX: r.Region[2], MaxY: r.Region[3]}
	}
	return qry, csv, qry.Validate()
}

// PairLine is one NDJSON result row (AppendPairNDJSON writes it without
// reflection; the router reads worker rows back with ParsePairNDJSON).
type PairLine struct {
	PID    int64   `json:"p_id"`
	QID    int64   `json:"q_id"`
	CX     float64 `json:"cx"`
	CY     float64 `json:"cy"`
	Radius float64 `json:"r"`
}

// Pair rebuilds the rcj.Pair shape the line encoders expect (endpoint
// coordinates are not on the wire). NDJSON floats are shortest-form, so the
// round trip is bit-exact and a re-encoded row matches the original byte
// for byte.
func (l PairLine) Pair() rcj.Pair {
	return rcj.Pair{
		P:      rcj.Point{ID: l.PID},
		Q:      rcj.Point{ID: l.QID},
		Center: rcj.Point{X: l.CX, Y: l.CY},
		Radius: l.Radius,
	}
}

// Counts are the work counters every /join summary starts with: rcjd
// reports one run's, rcjrouter their sum over a request's sub-queries.
// NodesPruned shows how much traversal the request's predicates saved —
// pushdown effectiveness, observable per query.
type Counts struct {
	Results      int64 `json:"results"`
	Candidates   int64 `json:"candidates"`
	NodeAccesses int64 `json:"node_accesses"`
	PageFaults   int64 `json:"page_faults"`
	NodesPruned  int64 `json:"nodes_pruned"`
	// BoundKilled is always 0; it leaves the wire together with
	// rcj.Stats.BoundKilledCandidates.
	BoundKilled int64 `json:"bound_killed_candidates"`
}

// Summary terminates a successful NDJSON stream: the request's exact
// statistics, attributed to it alone even under concurrent joins.
type Summary struct {
	Counts
	BufferHit float64 `json:"buffer_hit_ratio"`
	ElapsedMS int64   `json:"elapsed_ms"`
	// Alg and Parallelism are the EFFECTIVE values the join ran with — the
	// resolved plan's algorithm, and 1: every join runs on one goroutine.
	Alg         string `json:"alg"`
	Parallelism int    `json:"parallelism"`
	// Plan is the resolved plan decision, human-readable: rule, predicate
	// order, cost estimate ("rule=fixed" for forced runs).
	Plan string `json:"plan"`
	// Cached marks a stream replayed from the result cache; the statistics
	// above are the original run's.
	Cached bool `json:"cached,omitempty"`
}

// newSummary fills the summary from a run's statistics and resolved plan.
func newSummary(st rcj.Stats, dec rcj.PlanDecision) Summary {
	return Summary{
		Counts: Counts{
			Results:      st.Results,
			Candidates:   st.Candidates,
			NodeAccesses: st.NodeAccesses,
			PageFaults:   st.PageFaults,
			NodesPruned:  st.NodesPruned,
		},
		BufferHit:   st.BufferHitRatio(),
		Alg:         strings.ToLower(dec.Algorithm.String()),
		Parallelism: dec.Parallelism,
		Plan:        dec.String(),
	}
}

// JoinWriter writes one /join response, whichever tier answers: rcjd
// streaming a run or replaying its result cache, rcjrouter forwarding worker
// rows or emitting a gathered top-k. It owns the content type, the 200 that
// is written with the first byte of the body (so a caller that fails before
// any row can still choose another status), the row encodings, how a stream
// ends, and when it is flushed: the first row at once, so a client sees the
// stream start without waiting for a buffer to fill; then, checked as each
// row is written, at most once per flushInterval; and at the end. There is
// no timer: rows written after the last flush leave with the next row past
// the interval, or with the end. Not safe for concurrent use.
type JoinWriter struct {
	w         http.ResponseWriter
	flusher   http.Flusher // nil when w cannot flush
	csv       bool
	started   bool
	lastFlush time.Time // when a row last flushed the stream; zero before the first row
	buf       []byte    // row scratch: no allocation per line
}

// flushInterval is the least time between two flushes of a stream's rows.
// A flush is a write syscall and a chunk on the wire; flushing every row paid
// them once per pair, while the first row alone decides how soon a client
// sees the stream start.
const flushInterval = 5 * time.Millisecond

// NewJoinWriter returns a writer answering on w in CSV or NDJSON.
func NewJoinWriter(w http.ResponseWriter, csv bool) *JoinWriter {
	flusher, _ := w.(http.Flusher)
	return &JoinWriter{w: w, flusher: flusher, csv: csv, buf: make([]byte, 0, 256)}
}

// Started reports whether the status line is gone: from then on a failure
// can only be reported inside the stream (Fail).
func (jw *JoinWriter) Started() bool { return jw.started }

func (jw *JoinWriter) start() {
	if jw.started {
		return
	}
	if jw.csv {
		jw.w.Header().Set("Content-Type", "text/csv")
	} else {
		jw.w.Header().Set("Content-Type", "application/x-ndjson")
	}
	jw.w.WriteHeader(http.StatusOK)
	jw.started = true
}

// Pair writes one result row. ndjson, when non-nil, is the row as a worker
// already encoded it (trailing newline included) and reaches NDJSON clients
// verbatim; CSV rows are always encoded here, since CSV's six fixed decimals
// exist in no upstream form. The error is the client connection's.
func (jw *JoinWriter) Pair(pr rcj.Pair, ndjson []byte) error {
	jw.start()
	line := ndjson
	switch {
	case jw.csv:
		jw.buf = AppendPairCSV(jw.buf[:0], pr)
		line = jw.buf
	case ndjson == nil:
		jw.buf = AppendPairNDJSON(jw.buf[:0], pr)
		line = jw.buf
	}
	if _, err := jw.w.Write(line); err != nil {
		return err
	}
	if jw.lastFlush.IsZero() || time.Since(jw.lastFlush) >= flushInterval {
		jw.flush()
		jw.lastFlush = time.Now()
	}
	return nil
}

// flush pushes what has been written so far to the client.
func (jw *JoinWriter) flush() {
	if jw.flusher != nil {
		jw.flusher.Flush()
	}
}

// Fail ends a stream that cannot complete. NDJSON clients get record as the
// last line, in-band because the status line is (now) gone; a CSV stream has
// nowhere to put it and simply truncates — the client sees the closed body.
func (jw *JoinWriter) Fail(record any) {
	jw.end(record)
}

// Summary ends a stream that completed: NDJSON clients get the
// {"summary": sum} line, CSV clients nothing after their last row.
func (jw *JoinWriter) Summary(sum any) {
	jw.end(map[string]any{"summary": sum})
}

func (jw *JoinWriter) end(line any) {
	jw.start()
	if !jw.csv {
		// The payloads are this package's and the router's own structs; one
		// that cannot encode ends the stream without its last line.
		if b, err := json.Marshal(line); err == nil {
			jw.w.Write(append(b, '\n'))
		}
	}
	jw.flush()
}
