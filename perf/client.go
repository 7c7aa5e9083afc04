package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"repro/rcj"
)

// joinBody is the POST /join payload the client sends (the fields rcjd and
// rcjrouter share).
type joinBody struct {
	P           string    `json:"p"`
	Q           string    `json:"q,omitempty"`
	Self        bool      `json:"self,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`
	MaxDiameter float64   `json:"max_diameter,omitempty"`
	MinDistance float64   `json:"min_distance,omitempty"`
	TopK        int       `json:"top_k,omitempty"`
	Limit       int       `json:"limit,omitempty"`
	Region      []float64 `json:"region,omitempty"`
}

// bodyFor encodes a query op for the daemon. parallelism 0 leaves the
// fan-out to the daemon's planner.
func bodyFor(o op, parallelism int) []byte {
	b := joinBody{
		P: o.p, Q: o.q, Self: o.self(), Parallelism: parallelism,
		MaxDiameter: o.qry.MaxDiameter, MinDistance: o.qry.MinDistance,
		TopK: o.qry.TopK, Limit: o.qry.Limit,
	}
	if r := o.qry.Region; r != nil {
		b.Region = []float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
	}
	out, _ := json.Marshal(b) // plain struct of numbers and strings: cannot fail
	return out
}

// queryOf is bodyFor's inverse for the fields a worker sub-request carries;
// the traced run replays captured sub-requests below the HTTP layer with it.
func queryOf(b joinBody) rcj.Query {
	q := rcj.Query{MaxDiameter: b.MaxDiameter, MinDistance: b.MinDistance, TopK: b.TopK, Limit: b.Limit}
	if len(b.Region) == 4 {
		q.Region = &rcj.Rect{MinX: b.Region[0], MinY: b.Region[1], MaxX: b.Region[2], MaxY: b.Region[3]}
	}
	return q
}

// mutateBody is the POST /indexes/{name}/points payload.
type mutateBody struct {
	Insert []mutatePoint `json:"insert"`
	Delete []int64       `json:"delete"`
}

type mutatePoint struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

func mutationFor(o op) []byte {
	b := mutateBody{Insert: make([]mutatePoint, len(o.ins)), Delete: o.del}
	for i, p := range o.ins {
		b.Insert[i] = mutatePoint{ID: p.ID, X: p.X, Y: p.Y}
	}
	out, _ := json.Marshal(b)
	return out
}

// reply is what the client learned from one response.
type reply struct {
	d        digest
	first    float64 // ms from send to the first result row; -1 without one
	ms       float64 // ms from send to the last byte
	bytes    int
	cached   bool
	par      int
	accesses int64 // summary node_accesses
	est      int64 // est_accesses parsed from the summary's plan
	summary  json.RawMessage
}

var errNoSummary = errors.New("response ended without a summary line")

var (
	pairPrefix    = []byte(`{"p_id":`)
	summaryPrefix = []byte(`{"summary":`)
	estRE         = regexp.MustCompile(`est_accesses=(\d+)`)
)

// doJoin posts one join through handler-or-network and reads the NDJSON
// stream to its end. Any non-200, transport error, in-band error line or
// missing summary is an error: the operation failed.
func doJoin(ctx context.Context, hc *http.Client, url string, body []byte) (reply, error) {
	r := reply{first: -1}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = readStream(resp.Body, t0, &r)
	r.ms = time.Since(t0).Seconds() * 1e3
	return r, err
}

// readStream consumes an NDJSON join response into r.
func readStream(body io.Reader, t0 time.Time, r *reply) error {
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		r.bytes += len(line)
		if len(line) > 1 {
			switch {
			case bytes.HasPrefix(line, pairPrefix):
				pid, qid, ok := pairIDs(line)
				if !ok {
					return fmt.Errorf("bad result row %.80q", line)
				}
				if r.d.n == 0 {
					r.first = time.Since(t0).Seconds() * 1e3
				}
				r.d.add(pid, qid)
			case bytes.HasPrefix(line, summaryPrefix):
				var s struct {
					Summary json.RawMessage `json:"summary"`
				}
				if err := json.Unmarshal(line, &s); err != nil {
					return fmt.Errorf("bad summary line: %v", err)
				}
				r.summary = s.Summary
				var f struct {
					NodeAccesses int64  `json:"node_accesses"`
					Parallelism  int    `json:"parallelism"`
					Plan         string `json:"plan"`
					Cached       bool   `json:"cached"`
				}
				json.Unmarshal(s.Summary, &f)
				r.cached, r.par, r.accesses = f.Cached, f.Parallelism, f.NodeAccesses
				if m := estRE.FindStringSubmatch(f.Plan); m != nil {
					r.est, _ = strconv.ParseInt(m[1], 10, 64)
				}
			default:
				return fmt.Errorf("unexpected stream line %.120q", line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if r.summary == nil {
		return errNoSummary
	}
	return nil
}

// pairIDs extracts p_id and q_id from a result row without a JSON decoder:
// the row layout is fixed by the daemon's encoder, and the client must not
// be the bottleneck of a streamed join.
func pairIDs(line []byte) (pid, qid int64, ok bool) {
	rest := line[len(pairPrefix):]
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		return 0, 0, false
	}
	pid, err := strconv.ParseInt(string(rest[:i]), 10, 64)
	if err != nil {
		return 0, 0, false
	}
	rest = rest[i+1:]
	const qp = `"q_id":`
	if !bytes.HasPrefix(rest, []byte(qp)) {
		return 0, 0, false
	}
	rest = rest[len(qp):]
	j := bytes.IndexByte(rest, ',')
	if j < 0 {
		return 0, 0, false
	}
	qid, err = strconv.ParseInt(string(rest[:j]), 10, 64)
	return pid, qid, err == nil
}

// doMutate posts one mutation batch.
func doMutate(ctx context.Context, hc *http.Client, url string, body []byte) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	ms := time.Since(t0).Seconds() * 1e3
	if resp.StatusCode != http.StatusOK {
		return ms, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return ms, nil
}

// getJSON fetches a daemon's JSON endpoint (/metrics, /indexes).
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newClient returns an HTTP client holding up to conns keep-alive
// connections to a host: the workload's closed-loop client connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// workerMetrics is the part of rcjd's GET /metrics the ledger reads.
type workerMetrics struct {
	Sched struct {
		Admitted             int64 `json:"admitted"`
		RejectedOverload     int64 `json:"rejected_overload"`
		RejectedQueueTimeout int64 `json:"rejected_queue_timeout"`
		RejectedDraining     int64 `json:"rejected_draining"`
		BatchedRequests      int64 `json:"batched_requests"`
		QueueWait            struct {
			BoundsSeconds []float64 `json:"bounds_seconds"`
			Counts        []int64   `json:"counts"`
			SumSeconds    float64   `json:"sum_seconds"`
		} `json:"queue_wait"`
	} `json:"sched"`
	ResultCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"result_cache"`
	Live struct {
		Compactions    int64   `json:"compactions"`
		CompactSeconds float64 `json:"compact_seconds"`
		DeltaPoints    int     `json:"delta_points"`
	} `json:"live"`
}

// routerMetrics is the part of rcjrouter's GET /metrics the ledger reads.
type routerMetrics struct {
	Requests         int64 `json:"requests"`
	Subqueries       int64 `json:"subqueries"`
	Retries          int64 `json:"subquery_retries"`
	ShardsContacted  int64 `json:"shards_contacted"`
	ShardsPruned     int64 `json:"shards_pruned"`
	BoundTightenings int64 `json:"bound_tightenings"`
	DedupDropped     int64 `json:"dedup_dropped"`
}
