package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/storage"
	"repro/rcj"
)

// faultyOrigin serves one index image over HTTP ranges with scripted and
// persistent faults — the unreliable origin the daemon must survive.
type faultyOrigin struct {
	mu   sync.Mutex
	data []byte
	// next503 / nextShort fail the next N requests with a 503 / a short body.
	next503, nextShort int
	// corruptAt persistently flips a bit in any range starting at this
	// offset (-1 = off): the checksum-corrupting proxy.
	corruptAt int64
}

func (o *faultyOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	fail503 := o.next503 > 0
	if fail503 {
		o.next503--
	}
	short := !fail503 && o.nextShort > 0
	if short {
		o.nextShort--
	}
	corruptAt := o.corruptAt
	data := o.data
	o.mu.Unlock()

	if fail503 {
		http.Error(w, "origin flapping", http.StatusServiceUnavailable)
		return
	}
	h := r.Header.Get("Range")
	var off, end int64
	if _, err := fmt.Sscanf(h, "bytes=%d-%d", &off, &end); err != nil || off < 0 || off >= int64(len(data)) {
		http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if end >= int64(len(data)) {
		end = int64(len(data)) - 1
	}
	body := append([]byte(nil), data[off:end+1]...)
	if corruptAt >= 0 && off == corruptAt {
		body[7] ^= 0x20
	}
	w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, end, len(data)))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusPartialContent)
	if short {
		w.Write(body[:len(body)/2])
		return
	}
	w.Write(body)
}

// loadIndexJSON loads an index into the server via the admin endpoint.
func loadIndexJSON(t *testing.T, ts *httptest.Server, name, path string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/indexes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":%q,"path":%q}`, name, path)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeRemoteIndex is the serving-layer acceptance path: rcjd loads an
// index by URL (startup-style via LoadIndex and admin-style via POST
// /indexes), streams a join byte-identical to the same index loaded from
// the local file, and exposes remote-fetch/prefetch counters in /metrics.
func TestServeRemoteIndex(t *testing.T) {
	pPath, qPath, _, _ := buildSavedIndexes(t, 900)
	pData, err := os.ReadFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	qData, err := os.ReadFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy origin with a little scripted flap: two 503s and a short
	// read land somewhere in the load/join fetch stream and must be
	// absorbed by bounded retries without changing a byte of output.
	originP := &faultyOrigin{data: pData, corruptAt: -1, next503: 2, nextShort: 1}
	originQ := &faultyOrigin{data: qData, corruptAt: -1}
	srvP := httptest.NewServer(originP)
	defer srvP.Close()
	srvQ := httptest.NewServer(originQ)
	defer srvQ.Close()

	// Reference answer: the same indexes over the file backend.
	tsFile, _ := newTestServer(t, 900, sched.Config{MaxConcurrent: 2})
	respWant := postJoin(t, tsFile, `{"p":"p","q":"q","format":"csv"}`)
	wantCSV, err := io.ReadAll(respWant.Body)
	respWant.Body.Close()
	if err != nil || respWant.StatusCode != http.StatusOK {
		t.Fatalf("file-backend join: status %d, err %v", respWant.StatusCode, err)
	}

	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 2}), Config{Backend: rcj.BackendFile})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	// Startup-style load by URL.
	if err := srv.LoadIndex("p", srvP.URL); err != nil {
		t.Fatal(err)
	}
	// Admin-style load by URL.
	if resp := loadIndexJSON(t, ts, "q", srvQ.URL); resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /indexes (url) = %d: %s", resp.StatusCode, body)
	}

	resp := postJoin(t, ts, `{"p":"p","q":"q","format":"csv"}`)
	gotCSV, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("remote join: status %d, err %v", resp.StatusCode, err)
	}
	if string(gotCSV) != string(wantCSV) {
		t.Fatalf("remote CSV differs from file CSV: %d vs %d bytes", len(gotCSV), len(wantCSV))
	}

	// The counters must tell the remote story, JSON and prom alike.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Remote map[string]float64 `json:"remote"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if metrics.Remote["indexes"] != 2 || metrics.Remote["fetches"] == 0 {
		t.Fatalf("remote metrics %+v", metrics.Remote)
	}
	if metrics.Remote["retries"] == 0 {
		t.Fatalf("scripted faults produced no retries: %+v", metrics.Remote)
	}
	if metrics.Remote["prefetch_offered"] == 0 {
		t.Fatalf("no readahead offered: %+v", metrics.Remote)
	}
	promResp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	for _, want := range []string{
		"rcjd_remote_fetches_total ",
		"rcjd_prefetch_offered_total ",
		"rcjd_pool_prefetch_hits_total ",
		`rcjd_sched_queue_wait_seconds_bucket{le="+Inf"}`,
		"rcjd_sched_join_latency_seconds_count 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, prom)
		}
	}
}

// TestRemoteJoinChecksumFailure drives a join over an origin whose proxy
// persistently corrupts one page: the stream must terminate with a clean
// in-band typed error (no partial NDJSON rows), the retry budget must be
// respected, and the scheduler must free the slot so the daemon keeps
// serving. Run with -race.
func TestRemoteJoinChecksumFailure(t *testing.T) {
	pPath, _, _, _ := buildSavedIndexes(t, 700)
	data, err := os.ReadFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := storage.DecodeSuperblock(data[:storage.SuperblockSize])
	if err != nil {
		t.Fatal(err)
	}
	if sb.NumPages < 3 {
		t.Fatalf("test wants a multi-page index, got %d pages", sb.NumPages)
	}
	// Corrupt a page that is not the root, so the open (which reads only
	// the root) succeeds and the failure surfaces mid-join.
	victim := storage.PageID(0)
	if victim == sb.Root {
		victim = 1
	}
	dir, err := storage.DecodePageDir(data[sb.PageSize:], sb)
	if err != nil {
		t.Fatal(err)
	}
	origin := &faultyOrigin{data: data, corruptAt: int64(dir[victim])} // where the victim's blob starts
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 1, MaxQueue: 4}), Config{Backend: rcj.BackendFile})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	if err := srv.LoadIndex("p", originSrv.URL); err != nil {
		t.Fatalf("open should succeed (root is clean): %v", err)
	}

	resp := postJoin(t, ts, `{"p":"p","self":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join admitted with status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	if len(lines) == 0 {
		t.Fatal("empty stream: want at least the in-band error line")
	}
	// Every line — including the last — must be complete, parseable JSON:
	// a failing stream never emits a partial row.
	var sawError string
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not complete JSON (%v): %q", i, err, line)
		}
		if e, ok := m["error"].(string); ok {
			if i != len(lines)-1 {
				t.Fatalf("error line %d is not last of %d", i, len(lines))
			}
			sawError = e
		}
	}
	if sawError == "" {
		t.Fatalf("stream ended without an in-band error: %d lines", len(lines))
	}
	if !strings.Contains(sawError, "checksum") || !strings.Contains(sawError, fmt.Sprintf("page %d", victim)) {
		t.Fatalf("error is not the typed checksum failure naming page %d: %q", victim, sawError)
	}

	// The slot must be free and the failure accounted.
	snap := srv.Scheduler().Snapshot()
	if snap.InFlight != 0 {
		t.Fatalf("slot leaked: %+v", snap)
	}
	if snap.Failed == 0 {
		t.Fatalf("failure not counted: %+v", snap)
	}

	// Heal the origin and prove the daemon still serves: the corrupted
	// page was never cached, so a fresh join re-fetches it cleanly.
	origin.mu.Lock()
	origin.corruptAt = -1
	origin.mu.Unlock()
	resp2 := postJoin(t, ts, `{"p":"p","self":true}`)
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-failure join: status %d", resp2.StatusCode)
	}
	if !strings.Contains(string(body), `"summary"`) {
		t.Fatalf("post-failure join did not complete:\n%s", body)
	}

	// Retry budget: the victim page was fetched at most (1+MaxRetries) per
	// demand attempt plus at most (1+MaxRetries) per prefetch worker try —
	// bounded, not a loop. With the default config that is a handful of
	// requests, nowhere near the hundreds an unbounded retry would show.
	if rs, ok := indexRemoteStats(srv, "p"); ok {
		if rs.ChecksumFailures == 0 {
			t.Fatalf("checksum failures not counted: %+v", rs)
		}
		if rs.Retries > 64 {
			t.Fatalf("retries unbounded: %+v", rs)
		}
	} else {
		t.Fatal("index p is not remote")
	}
}

// TestRemoteCountersSurviveUnload pins counter monotonicity: unloading a
// remote index must fold its final fetch/prefetch counts into the server
// totals instead of dropping them — a Prometheus counter that regresses
// reads as a reset and corrupts rate() over every unload/reload cycle.
func TestRemoteCountersSurviveUnload(t *testing.T) {
	pPath, _, _, _ := buildSavedIndexes(t, 500)
	data, err := os.ReadFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(&faultyOrigin{data: data, corruptAt: -1})
	defer origin.Close()

	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 1}), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	if err := srv.LoadIndex("p", origin.URL); err != nil {
		t.Fatal(err)
	}
	resp := postJoin(t, ts, `{"p":"p","self":true}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	before, _, n := srv.remoteTotals()
	if n != 1 || before.Fetches == 0 {
		t.Fatalf("pre-unload totals %+v over %d remote indexes", before, n)
	}
	if err := srv.UnloadIndex("p"); err != nil {
		t.Fatal(err)
	}
	after, _, n := srv.remoteTotals()
	if n != 0 {
		t.Fatalf("remote index gauge = %d after unload, want 0", n)
	}
	if after.Fetches < before.Fetches || after.BytesFetched < before.BytesFetched {
		t.Fatalf("counters regressed across unload: before %+v, after %+v", before, after)
	}
}

// indexRemoteStats reads one registered index's remote counters.
func indexRemoteStats(s *Server, name string) (rcj.RemoteStats, bool) {
	e, ok := s.lookup(name)
	if !ok {
		return rcj.RemoteStats{}, false
	}
	return e.ix.RemoteStats()
}
