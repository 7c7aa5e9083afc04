package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/rcj"
)

// buildSavedIndexes writes two .rcjx files for the tests and returns their
// paths plus the pointsets they index.
func buildSavedIndexes(t *testing.T, n int) (pPath, qPath string, pPts, qPts []rcj.Point) {
	t.Helper()
	dir := t.TempDir()
	mk := func(name string, offset float64) (string, []rcj.Point) {
		pts := make([]rcj.Point, n)
		for i := range pts {
			pts[i] = rcj.Point{
				X:  float64(i%71)*13.3 + offset,
				Y:  float64(i%89)*9.1 + offset/3,
				ID: int64(i),
			}
		}
		ix, err := rcj.BuildIndex(pts, rcj.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		path := filepath.Join(dir, name)
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		return path, pts
	}
	pPath, pPts = mk("p.rcjx", 0)
	qPath, qPts = mk("q.rcjx", 4000)
	return pPath, qPath, pPts, qPts
}

// newTestServer stands up a Server over saved indexes "p" and "q" with the
// given scheduler config, mounted on an httptest.Server.
func newTestServer(t *testing.T, n int, cfg sched.Config) (*httptest.Server, *Server) {
	t.Helper()
	pPath, qPath, _, _ := buildSavedIndexes(t, n)
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := New(sched.New(eng, cfg), Config{Backend: rcj.BackendFile})
	if err := srv.LoadIndex("p", pPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadIndex("q", qPath); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

// postJoin posts a /join request and returns the response.
func postJoin(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeStream splits an NDJSON join response into pairs and the summary.
func decodeStream(t *testing.T, r io.Reader) ([]rcj.Pair, *Summary) {
	t.Helper()
	var pairs []rcj.Pair
	var summary *Summary
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe["summary"] != nil:
			summary = new(Summary)
			if err := json.Unmarshal(probe["summary"], summary); err != nil {
				t.Fatal(err)
			}
		case probe["error"] != nil:
			t.Fatalf("stream error: %s", line)
		default:
			var pl PairLine
			if err := json.Unmarshal(line, &pl); err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, rcj.Pair{
				P:      rcj.Point{ID: pl.PID},
				Q:      rcj.Point{ID: pl.QID},
				Center: rcj.Point{X: pl.CX, Y: pl.CY},
				Radius: pl.Radius,
			})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs, summary
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// pairKey canonicalizes one result for set comparison; float bits are
// compared exactly — both sides run the same computation.
func pairKey(id1, id2 int64, cx, cy, r float64) string {
	return fmt.Sprintf("%d/%d/%x/%x/%x", id1, id2, cx, cy, r)
}

func pairSet(t *testing.T, pairs []rcj.Pair) map[string]int {
	t.Helper()
	set := make(map[string]int, len(pairs))
	for _, pr := range pairs {
		set[pairKey(pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)]++
	}
	return set
}

func assertSameSet(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d distinct pairs, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("pair %s: got %d, want %d", k, got[k], n)
		}
	}
}

func TestJoinStreamMatchesCollect(t *testing.T) {
	ts, srv := newTestServer(t, 600, sched.Config{MaxConcurrent: 2, MaxQueue: 4})

	resp := postJoin(t, ts, `{"p":"p","q":"q"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	got, summary, _ := pairsOf(t, resp)

	pIx, _ := srv.lookup("p")
	qIx, _ := srv.lookup("q")
	want, wantStats, err := srv.Scheduler().Engine().RunCollect(context.Background(), qIx.ix, pIx.ix, rcj.Query{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, got, pairSet(t, want))

	if summary == nil {
		t.Fatal("no summary line")
	}
	if summary.Results != wantStats.Results || summary.Candidates != wantStats.Candidates {
		t.Fatalf("summary %+v, want results=%d candidates=%d", summary, wantStats.Results, wantStats.Candidates)
	}
	if summary.NodeAccesses == 0 {
		t.Fatal("summary has zero node accesses — tagged stats not wired through")
	}
}

// pairsOf drains a 200 response into a pair set plus summary.
func pairsOf(t *testing.T, resp *http.Response) (map[string]int, *Summary, int) {
	t.Helper()
	pairs, summary := decodeStream(t, resp.Body)
	set := make(map[string]int, len(pairs))
	for _, pr := range pairs {
		set[pairKey(pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)]++
	}
	return set, summary, len(pairs)
}

func TestSelfJoinAndCSVFormat(t *testing.T) {
	ts, srv := newTestServer(t, 400, sched.Config{MaxConcurrent: 2, MaxQueue: 4})

	resp := postJoin(t, ts, `{"p":"p","self":true,"format":"csv"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	pIx, _ := srv.lookup("p")
	want, _, err := srv.Scheduler().Engine().RunCollect(context.Background(), pIx.ix, pIx.ix, rcj.Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantLines := make(map[string]int, len(want))
	for _, pr := range want {
		wantLines[fmt.Sprintf("%d,%d,%.6f,%.6f,%.6f", pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)]++
	}
	gotLines := make(map[string]int)
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		gotLines[line]++
		n++
	}
	if n != len(want) {
		t.Fatalf("%d CSV rows, want %d", n, len(want))
	}
	for line, c := range wantLines {
		if gotLines[line] != c {
			t.Fatalf("row %q: got %d, want %d", line, gotLines[line], c)
		}
	}
}

func TestJoinRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t, 100, sched.Config{MaxConcurrent: 1})
	cases := []struct {
		body   string
		status int
	}{
		{`{"q":"q"}`, http.StatusBadRequest},                     // missing p
		{`{"p":"p"}`, http.StatusBadRequest},                     // neither q nor self
		{`{"p":"p","q":"q","self":true}`, http.StatusBadRequest}, // both
		// One row for JoinRequest.Query's rejections (all of them 400); the
		// rules themselves are tabled in router.TestJoinRequestOneDefinition.
		// "bij" is the one that used to be accepted.
		{`{"p":"p","q":"q","alg":"bij"}`, http.StatusBadRequest},
		{`{"p":"nope","q":"q"}`, http.StatusNotFound},
		{`{"p":"p","q":"nope"}`, http.StatusNotFound},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJoin(t, ts, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
	}
}

func TestIndexEndpoints(t *testing.T) {
	pPath, _, _, _ := buildSavedIndexes(t, 100)
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 256})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 1}), Config{Backend: rcj.BackendMem})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Admin load endpoint.
	body, _ := json.Marshal(loadRequest{Name: "fresh", Path: pPath})
	resp, err := http.Post(ts.URL+"/indexes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load status = %d", resp.StatusCode)
	}
	// Duplicate name conflicts.
	resp, err = http.Post(ts.URL+"/indexes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate load status = %d, want 409", resp.StatusCode)
	}
	// Bogus path is a client error.
	bad, _ := json.Marshal(loadRequest{Name: "bad", Path: filepath.Join(t.TempDir(), "missing.rcjx")})
	resp, err = http.Post(ts.URL+"/indexes", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad path status = %d, want 400", resp.StatusCode)
	}

	// Listing reflects the registry.
	lresp, err := http.Get(ts.URL + "/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var infos []indexInfo
	if err := json.NewDecoder(lresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "fresh" || infos[0].Points != 100 {
		t.Fatalf("indexes = %+v", infos)
	}
}

// TestOverloadReturns429 checks the typed admission rejection surfaces as a
// 429 before any result bytes, and that the slot frees afterwards.
func TestOverloadReturns429(t *testing.T) {
	ts, srv := newTestServer(t, 200, sched.Config{MaxConcurrent: 1, MaxQueue: 0})

	// Hold the only slot directly through the scheduler.
	release, err := srv.Scheduler().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp := postJoin(t, ts, `{"p":"p","q":"q"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	release()
	resp = postJoin(t, ts, `{"p":"p","q":"q"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	var m struct {
		Sched sched.Snapshot `json:"sched"`
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Sched.RejectedOverload != 1 || m.Sched.Completed != 1 {
		t.Fatalf("metrics = %+v, want 1 rejected_overload / 1 completed", m.Sched)
	}
}

// TestClientDisconnectCancelsJoin checks that a client dropping mid-stream
// cancels the join and releases its slot for the next request.
func TestClientDisconnectCancelsJoin(t *testing.T) {
	// A big enough self-join that the stream cannot finish within the
	// disconnect window, on one slot with no queue.
	ts, srv := newTestServer(t, 8000, sched.Config{MaxConcurrent: 1, MaxQueue: 0})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/join",
		strings.NewReader(`{"p":"p","self":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line to prove the stream started, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("no first pair: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The join's slot must come free: the executor saw the cancellation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		release, err := srv.Scheduler().Acquire(context.Background())
		if err == nil {
			release()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after client disconnect: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthzFlipsOnDrain(t *testing.T) {
	ts, srv := newTestServer(t, 100, sched.Config{MaxConcurrent: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	srv.Scheduler().BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	// Joins are rejected with 503 too.
	jresp := postJoin(t, ts, `{"p":"p","q":"q"}`)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join while draining = %d, want 503", jresp.StatusCode)
	}
}

// TestConcurrentClientsOverloadAndDrain is the acceptance integration test:
// ≥8 concurrent HTTP clients against maxConcurrent=2, a bounded queue
// producing typed 429 rejections for the excess, every admitted stream
// byte-identical to Engine.RunCollect, and a graceful drain completing
// while clients are still streaming.
func TestConcurrentClientsOverloadAndDrain(t *testing.T) {
	const (
		clients       = 10
		maxConcurrent = 2
		maxQueue      = 4
	)
	ts, srv := newTestServer(t, 700, sched.Config{MaxConcurrent: maxConcurrent, MaxQueue: maxQueue})

	pIx, _ := srv.lookup("p")
	qIx, _ := srv.lookup("q")
	want, _, err := srv.Scheduler().Engine().RunCollect(context.Background(), qIx.ix, pIx.ix, rcj.Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := pairSet(t, want)

	// Phase 1: occupy both join slots so the HTTP clients genuinely overlap
	// (the joins themselves are too fast to pile up on their own).
	releaseA, err := srv.Scheduler().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	releaseB, err := srv.Scheduler().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: maxQueue clients enqueue and block in admission.
	type clientResult struct {
		status int
		set    map[string]int
		pairs  int
	}
	queuedResults := make(chan clientResult, maxQueue)
	var wg sync.WaitGroup
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJoin(t, ts, `{"p":"p","q":"q"}`)
			defer resp.Body.Close()
			res := clientResult{status: resp.StatusCode}
			if resp.StatusCode == http.StatusOK {
				got, summary, n := pairsOf(t, resp)
				if summary != nil {
					res.set, res.pairs = got, n
				}
			}
			queuedResults <- res
		}()
	}
	waitFor(t, func() bool { return srv.Scheduler().Snapshot().Queued == maxQueue })

	// Phase 3: with slots and queue full, the remaining clients must be
	// rejected immediately with the typed 429 — no waiting, no stream.
	overflow := clients - maxConcurrent - maxQueue
	for i := 0; i < overflow; i++ {
		resp := postJoin(t, ts, `{"p":"p","q":"q"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow client %d: status %d, want 429", i, resp.StatusCode)
		}
	}

	// Phase 4: begin draining while the admitted clients are still waiting
	// on slots. Draining must reject brand-new work with 503 immediately…
	srv.Scheduler().BeginDrain()
	resp := postJoin(t, ts, `{"p":"p","q":"q"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join during drain: status %d, want 503", resp.StatusCode)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Scheduler().Drain(context.Background()) }()
	select {
	case <-drained:
		t.Fatal("drain completed with slots held and clients queued")
	case <-time.After(20 * time.Millisecond):
	}

	// Phase 5: free the slots; every queued client must stream to
	// completion with results identical to Engine.RunCollect, and only
	// then may the drain finish.
	releaseA()
	releaseB()
	wg.Wait()
	close(queuedResults)
	served := 0
	for res := range queuedResults {
		if res.status != http.StatusOK {
			t.Fatalf("queued client: status %d, want 200", res.status)
		}
		if res.pairs != len(want) {
			t.Fatalf("queued client: %d pairs, want %d", res.pairs, len(want))
		}
		assertSameSet(t, res.set, wantSet)
		served++
	}
	if served != maxQueue {
		t.Fatalf("served %d queued clients, want %d", served, maxQueue)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	snap := srv.Scheduler().Snapshot()
	if snap.RejectedOverload != int64(overflow) {
		t.Fatalf("metrics rejected_overload = %d, want %d", snap.RejectedOverload, overflow)
	}
	if snap.Completed != int64(served) {
		t.Fatalf("metrics completed = %d, want %d", snap.Completed, served)
	}
	if snap.InFlight != 0 || snap.Queued != 0 {
		t.Fatalf("slots leaked: %+v", snap)
	}
}
