package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/rcj"
)

// postJSON posts body to path and returns the response.
func postJSON(t *testing.T, base, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, want, body)
	}
	io.Copy(io.Discard, resp.Body)
}

func TestMutateEndpoint(t *testing.T) {
	ts, srv := newTestServer(t, 200, sched.Config{MaxConcurrent: 2, MaxQueue: 4})
	if err := srv.LoadMutableIndex("m", "", -1, 0); err != nil {
		t.Fatal(err)
	}

	// A valid batch lands atomically and reports the new epoch.
	resp := postJSON(t, ts.URL, "/indexes/m/points",
		`{"insert":[{"id":1,"x":10,"y":10},{"id":2,"x":11,"y":10}]}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("mutate: status %d (body %s)", resp.StatusCode, body)
	}
	var ok struct {
		Epoch    uint64 `json:"epoch"`
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ok.Epoch != 1 || ok.Inserted != 2 || ok.Deleted != 0 {
		t.Fatalf("mutate response %+v", ok)
	}

	// Duplicate insert and unknown delete are 400s with no state change;
	// mutating an immutable index is 409; an unknown index is 404.
	wantStatus(t, postJSON(t, ts.URL, "/indexes/m/points", `{"insert":[{"id":1,"x":0,"y":0}]}`), http.StatusBadRequest)
	wantStatus(t, postJSON(t, ts.URL, "/indexes/m/points", `{"delete":[99]}`), http.StatusBadRequest)
	wantStatus(t, postJSON(t, ts.URL, "/indexes/p/points", `{"insert":[{"id":1,"x":0,"y":0}]}`), http.StatusConflict)
	wantStatus(t, postJSON(t, ts.URL, "/indexes/nope/points", `{"insert":[{"id":1,"x":0,"y":0}]}`), http.StatusNotFound)
	wantStatus(t, postJSON(t, ts.URL, "/indexes/m/points", `{"delete":[1]}`), http.StatusOK)

	// GET /indexes advertises mutability and epoch state.
	resp, err := http.Get(ts.URL + "/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing []struct {
		Name    string `json:"name"`
		Mutable bool   `json:"mutable"`
		Points  int    `json:"points"`
		Live    *struct {
			Epoch       uint64 `json:"epoch"`
			DeltaPoints int    `json:"delta_points"`
			Inserts     int64  `json:"inserts"`
			Deletes     int64  `json:"deletes"`
			Subscribers int    `json:"subscribers"`
		} `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range listing {
		if e.Name == "p" && (e.Mutable || e.Live != nil) {
			t.Fatalf("immutable index advertises live state: %+v", e)
		}
		if e.Name != "m" {
			continue
		}
		found = true
		if !e.Mutable || e.Live == nil {
			t.Fatalf("mutable index row %+v lacks live info", e)
		}
		if e.Points != 1 || e.Live.Epoch != 2 || e.Live.Inserts != 2 || e.Live.Deletes != 1 {
			t.Fatalf("live info %+v (points %d), want 1 point at epoch 2 after 2 inserts / 1 delete",
				e.Live, e.Points)
		}
	}
	if !found {
		t.Fatal("mutable index missing from GET /indexes")
	}

	// /metrics exposes the rcjd_live_* family.
	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"rcjd_live_indexes 1",
		"rcjd_live_inserts_total 2",
		"rcjd_live_deletes_total 1",
		"rcjd_live_batches_total 2",
		"rcjd_live_subscribers 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

func TestMutableLoadUnloadEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 100, sched.Config{MaxConcurrent: 2, MaxQueue: 4})
	// Load an empty mutable index over the API, mutate it, unload it.
	wantStatus(t, postJSON(t, ts.URL, "/indexes", `{"name":"live1","mutable":true}`), http.StatusCreated)
	wantStatus(t, postJSON(t, ts.URL, "/indexes", `{"name":"live1","mutable":true}`), http.StatusConflict)
	// A pathless load without mutable stays invalid.
	wantStatus(t, postJSON(t, ts.URL, "/indexes", `{"name":"live2"}`), http.StatusBadRequest)
	wantStatus(t, postJSON(t, ts.URL, "/indexes/live1/points", `{"insert":[{"id":5,"x":1,"y":2}]}`), http.StatusOK)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/indexes/live1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)

	// The retired counters keep the totals monotone after the unload.
	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"rcjd_live_indexes 0", "rcjd_live_inserts_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q after unload", want)
		}
	}
}

// subscribeLines opens a /subscribe stream and returns its decoded lines
// (the stream must terminate on its own, e.g. via max_events).
func subscribeLines(t *testing.T, base, body string) []subscribeEvent {
	t.Helper()
	resp := postJSON(t, base, "/subscribe", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("subscribe: status %d (body %s)", resp.StatusCode, b)
	}
	var events []subscribeEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev subscribeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestSubscribeEndpoint(t *testing.T) {
	ts, srv := newTestServer(t, 100, sched.Config{MaxConcurrent: 2, MaxQueue: 4})
	if err := srv.LoadMutableIndex("m", "", -1, 0); err != nil {
		t.Fatal(err)
	}
	// Four points on a line, two tight clusters: the self-join (smallest
	// enclosing circle empty of other points) yields exactly 3 pairs —
	// the two tight ones plus the cross pair of the facing cluster edges,
	// whose circle just excludes the outer points.
	wantStatus(t, postJSON(t, ts.URL, "/indexes/m/points",
		`{"insert":[{"id":1,"x":0,"y":0},{"id":2,"x":1,"y":0},{"id":3,"x":5000,"y":5000},{"id":4,"x":5001,"y":5000}]}`),
		http.StatusOK)

	events := subscribeLines(t, ts.URL, `{"p":"m","self":true,"max_events":4}`)
	if len(events) != 5 {
		t.Fatalf("stream delivered %d events, want 5 (add x3, sync, end): %+v", len(events), events)
	}
	for i := 0; i < 3; i++ {
		if events[i].Event != "add" {
			t.Fatalf("replay event %d is %+v, want add", i, events[i])
		}
	}
	if events[3].Event != "sync" || events[3].Pairs == nil || *events[3].Pairs != 3 {
		t.Fatalf("sync event %+v, want pairs=3", events[3])
	}
	if events[4].Event != "end" || events[4].Reason != "max_events" {
		t.Fatalf("end event %+v, want reason max_events", events[4])
	}

	// Shape and mutability validation.
	wantStatus(t, postJSON(t, ts.URL, "/subscribe", `{"p":"m"}`), http.StatusBadRequest)
	wantStatus(t, postJSON(t, ts.URL, "/subscribe", `{"p":"m","q":"q","self":true}`), http.StatusBadRequest)
	wantStatus(t, postJSON(t, ts.URL, "/subscribe", `{"p":"p","q":"q"}`), http.StatusConflict)
	wantStatus(t, postJSON(t, ts.URL, "/subscribe", `{"p":"nope","self":true}`), http.StatusNotFound)
}

// TestSubscribeStreamsMutations subscribes first, then applies a batch and
// watches the adds arrive live on the open stream.
func TestSubscribeStreamsMutations(t *testing.T) {
	ts, srv := newTestServer(t, 100, sched.Config{MaxConcurrent: 2, MaxQueue: 4})
	if err := srv.LoadMutableIndex("m", "", -1, 0); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL, "/subscribe", `{"p":"m","self":true,"max_events":4}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	readEvent := func() subscribeEvent {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev subscribeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	if ev := readEvent(); ev.Event != "sync" || *ev.Pairs != 0 {
		t.Fatalf("initial event %+v, want empty sync", ev)
	}
	wantStatus(t, postJSON(t, ts.URL, "/indexes/m/points",
		`{"insert":[{"id":1,"x":0,"y":0},{"id":2,"x":1,"y":0}]}`), http.StatusOK)
	if ev := readEvent(); ev.Event != "add" || ev.PID == nil || ev.QID == nil ||
		*ev.PID+*ev.QID != 3 || *ev.PID == *ev.QID {
		t.Fatalf("live event %+v, want add of pair {1,2}", ev)
	}
	// The deletion path announces itself as a resync followed by the state.
	wantStatus(t, postJSON(t, ts.URL, "/indexes/m/points", `{"delete":[2]}`), http.StatusOK)
	if ev := readEvent(); ev.Event != "resync" {
		t.Fatalf("post-delete event %+v, want resync", ev)
	}
	if ev := readEvent(); ev.Event != "sync" || *ev.Pairs != 0 {
		t.Fatalf("post-resync sync %+v, want 0 pairs", ev)
	}
	if ev := readEvent(); ev.Event != "end" || ev.Reason != "max_events" {
		t.Fatalf("end event %+v", ev)
	}
}

// TestDaemonDrainsSubscriptions boots the full daemon with a live index,
// opens a subscription with no event bound, then cancels the run context:
// the drain must cancel the subscription and RunDaemon must return.
func TestDaemonDrainsSubscriptions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- RunDaemon(ctx, DaemonConfig{
			Addr:        "127.0.0.1:0",
			LiveIndexes: map[string]string{"m": ""},
			Backend:     rcj.BackendMem,
			Sched:       sched.Config{MaxConcurrent: 2, MaxQueue: 4},
			Logf:        t.Logf,
		}, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-daemonErr:
		t.Fatalf("daemon died before ready: %v", err)
	}

	resp := postJSON(t, base, "/subscribe", `{"p":"m","self":true}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no initial sync: %v", sc.Err())
	}

	cancel() // the SIGTERM path
	select {
	case err := <-daemonErr:
		if err != nil {
			t.Fatalf("drain with open subscription: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not drain while a subscription was open")
	}
	// The stream ended with a cancellation marker (best-effort: the socket
	// may already be closed, in which case the scan just stops).
	var last subscribeEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			break
		}
	}
	if last.Event == "end" && last.Reason != "cancelled" && last.Reason != "closed" {
		t.Fatalf("end reason %q, want cancelled/closed", last.Reason)
	}

	// New subscriptions after drain start are rejected (the daemon exited,
	// so just confirm the connection fails rather than hangs).
	if _, err := http.Post(base+"/subscribe", "application/json", strings.NewReader(`{"p":"m","self":true}`)); err == nil {
		t.Log("post-drain subscribe unexpectedly connected (listener race); acceptable")
	}
}

// TestMutationInvalidatesResultCache pins the cache-key contract: a cached
// bounded query result must not survive a mutation of its index.
func TestMutationInvalidatesResultCache(t *testing.T) {
	pPath, qPath, _, _ := buildSavedIndexes(t, 200)
	_ = qPath
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 2, MaxQueue: 4}),
		Config{Backend: rcj.BackendFile, ResultCacheEntries: 16, ResultCachePairs: 64})
	defer srv.Close()
	if err := srv.LoadMutableIndex("m", pPath, -1, 0); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	run := func() string {
		resp := postJSON(t, ts, "/join", `{"p":"m","self":true,"top_k":5}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first := run()
	second := run() // cache hit: byte-identical replay
	if !strings.Contains(first, `"summary"`) {
		t.Fatalf("join response lacks summary: %s", first)
	}

	// Mutate: the epoch folds into the cache key, so the stale entry is
	// unreachable and the query re-executes against the new point set.
	wantStatus(t, postJSON(t, ts, "/indexes/m/points", `{"insert":[{"id":9001,"x":0.5,"y":0.5},{"id":9002,"x":0.6,"y":0.5}]}`), http.StatusOK)
	third := run()
	if third == second {
		t.Fatal("top-k result unchanged after inserting an adjacent pair: stale cache hit")
	}

	stats := srv.cache.snapshot()
	if stats.Hits == 0 {
		t.Fatalf("no cache hit across identical queries (stats %+v)", stats)
	}
}

// newHTTPServer mounts srv on a listener and returns its base URL.
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestNonFinitePointsRejected drives one table of NaN/±Inf coordinates
// through every door into an index: each refuses the whole input with
// rcj.ErrBadPoint, and the live index behind the mutation doors keeps its
// epoch and its points. JSON has no spelling for a non-finite number, so the
// HTTP door sends what a client can: an overflowing literal, or a bare token.
func TestNonFinitePointsRejected(t *testing.T) {
	eng := rcj.NewEngine(rcj.EngineConfig{})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 1}), Config{})
	t.Cleanup(func() { srv.Close() })
	if err := srv.LoadMutableIndex("live", "", -1, 0); err != nil {
		t.Fatal(err)
	}
	base := newHTTPServer(t, srv)
	e, _ := srv.lookup("live")
	live := e.ix
	good := rcj.Point{ID: 1, X: 1, Y: 1}
	if _, err := live.Insert(good, rcj.Point{ID: 2, X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	epoch, points := live.Epoch(), live.Len()

	doors := []struct {
		name string
		try  func(pts []rcj.Point) error
	}{
		{"BuildIndex", func(pts []rcj.Point) error { _, err := rcj.BuildIndex(pts, rcj.IndexConfig{}); return err }},
		{"Engine.BuildIndex", func(pts []rcj.Point) error { _, err := eng.BuildIndex(pts, rcj.IndexConfig{}); return err }},
		{"NewMutableIndex", func(pts []rcj.Point) error {
			_, err := eng.NewMutableIndex(pts, rcj.MutableConfig{CompactEvery: -1})
			return err
		}},
		{"Insert", func(pts []rcj.Point) error { _, err := live.Insert(pts...); return err }},
		{"ApplyBatch", func(pts []rcj.Point) error { _, err := live.ApplyBatch(pts, []int64{good.ID}); return err }},
	}
	for _, bad := range []struct {
		name string
		x, y float64
		json string // the x coordinate as the HTTP door receives it
	}{
		{"nan-x", math.NaN(), 5, `NaN`},
		{"nan-y", 5, math.NaN(), `5,"y":NaN`},
		{"pos-inf", math.Inf(1), 5, `1e999`},
		{"neg-inf", 5, math.Inf(-1), `5,"y":-1e999`},
	} {
		t.Run(bad.name, func(t *testing.T) {
			pts := []rcj.Point{{ID: 98, X: 3, Y: 3}, {ID: 99, X: bad.x, Y: bad.y}}
			for _, door := range doors {
				if err := door.try(pts); !errors.Is(err, rcj.ErrBadPoint) {
					t.Errorf("%s: err = %v, want rcj.ErrBadPoint", door.name, err)
				}
			}
			resp := postJSON(t, base, "/indexes/live/points",
				`{"insert":[{"id":98,"x":3,"y":3},{"id":99,"x":`+bad.json+`}],"delete":[1]}`)
			wantStatus(t, resp, http.StatusBadRequest)
			if live.Epoch() != epoch || live.Len() != points {
				t.Errorf("index changed: epoch %d -> %d, points %d -> %d", epoch, live.Epoch(), points, live.Len())
			}
		})
	}
}

// TestOversizeBodyIs413: every JSON body rcjd reads is bounded; an oversize
// one is refused with 413 before it is parsed, admits nothing, and the
// mutation endpoint's larger bound still lets a big batch through.
func TestOversizeBodyIs413(t *testing.T) {
	eng := rcj.NewEngine(rcj.EngineConfig{})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 1}), Config{})
	t.Cleanup(func() { srv.Close() })
	if err := srv.LoadMutableIndex("live", "", -1, 0); err != nil {
		t.Fatal(err)
	}
	base := newHTTPServer(t, srv)
	schedCounters := func() (admitted, inFlight float64) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m struct {
			Sched map[string]any `json:"sched"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Sched["admitted"].(float64), m.Sched["in_flight"].(float64)
	}
	admitted, inFlight := schedCounters()

	// A batch well past the query bound but inside the mutation bound.
	var batch strings.Builder
	batch.WriteString(`{"insert":[`)
	for i := 0; batch.Len() <= maxRequestBody; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"id":%d,"x":%d.5,"y":%d.25}`, i, i%1000, i/1000)
	}
	batch.WriteString(`]}`)
	wantStatus(t, postJSON(t, base, "/indexes/live/points", batch.String()), http.StatusOK)

	for _, tc := range []struct {
		path  string
		limit int
	}{
		{"/join", maxRequestBody},
		{"/subscribe", maxRequestBody},
		{"/indexes", maxRequestBody},
		{"/indexes/live/points", maxMutationBody},
	} {
		// Valid JSON all the way: only its size is wrong.
		body := io.MultiReader(strings.NewReader(`{"p":"`), io.LimitReader(zeros{}, int64(tc.limit)), strings.NewReader(`"}`))
		resp, err := http.Post(base+tc.path, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		wantStatus(t, resp, http.StatusRequestEntityTooLarge)
	}
	if a, f := schedCounters(); a != admitted || f != inFlight {
		t.Errorf("sched admitted %v -> %v, in_flight %v -> %v: an oversize body reached admission", admitted, a, inFlight, f)
	}
}

// zeros reads as an endless run of '0' characters.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestCompactionFailureIsLogged: a background compaction that cannot write
// its generation file is reported where an operator looks — one daemon log
// line naming the index, next to the compact_failures counter — and the index
// keeps answering from the uncompacted epoch. The failure is a generation
// directory that has vanished (the test may run as root, whom a read-only
// directory does not stop).
func TestCompactionFailureIsLogged(t *testing.T) {
	pPath, _, pPts, _ := buildSavedIndexes(t, 200)
	dir := filepath.Join(t.TempDir(), "base")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "places.rcjx")
	if err := os.Rename(pPath, basePath); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := make(chan string, 64) // the daemon's few lifecycle lines, never blocking it
	addrCh := make(chan string, 1)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- RunDaemon(ctx, DaemonConfig{
			Addr:             "127.0.0.1:0",
			LiveIndexes:      map[string]string{"places": basePath},
			LiveCompactEvery: 4,
			Backend:          rcj.BackendMem,
			Sched:            sched.Config{MaxConcurrent: 1},
			Logf:             func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) },
		}, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-daemonErr:
		t.Fatalf("daemon died before ready: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	// Four inserts reach the compaction threshold; the seal's save fails.
	first := int64(len(pPts))
	wantStatus(t, postJSON(t, base, "/indexes/places/points", fmt.Sprintf(
		`{"insert":[{"id":%d,"x":1.5,"y":2.5},{"id":%d,"x":3.5,"y":4.5},{"id":%d,"x":5.5,"y":6.5},{"id":%d,"x":7.5,"y":8.5}]}`,
		first, first+1, first+2, first+3)), http.StatusOK)
	failures := func() float64 {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m struct {
			Live map[string]float64 `json:"live"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Live["compact_failures"]
	}
	for deadline := time.Now().Add(10 * time.Second); failures() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("compact_failures = %v, want 1", failures())
		}
	}

	resp := postJSON(t, base, "/join", `{"p":"places","self":true,"limit":5}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"summary"`) {
		t.Fatalf("join after the failed compaction: status %d: %s", resp.StatusCode, body)
	}

	cancel()
	if err := <-daemonErr; err != nil {
		t.Fatalf("RunDaemon: %v", err)
	}
	close(logs)
	var reported []string
	for line := range logs {
		if strings.Contains(line, "compaction failed") {
			reported = append(reported, line)
		}
	}
	if len(reported) != 1 || !strings.Contains(reported[0], "live index places") {
		t.Fatalf("daemon log reports the failed compaction %d times, want once naming the index: %q", len(reported), reported)
	}
}
