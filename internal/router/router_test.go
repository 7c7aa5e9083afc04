package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/rcj"
)

const (
	testSpan = 1000.0
	testMaxD = 250.0
)

// testPoints builds a dataset over [0,1000]² with pinned corners (so the
// manifest bounds — and with them the interior grid cuts — are exact) and a
// crafted straddler at (499, 977)/(501, 977): its pair's center lands
// bit-exactly on the x=500 cut of a 2x2 grid, so two shards own and emit
// it. Random points stay below y=940, guaranteeing the straddler pair is
// witness-free and survives into every unconstrained result.
func testPoints(rng *rand.Rand, n int, idBase int64, straddleX float64) []rcj.Point {
	pts := []rcj.Point{
		{X: 0, Y: 0, ID: idBase},
		{X: testSpan, Y: testSpan, ID: idBase + 1},
		{X: straddleX, Y: 977, ID: idBase + 2},
	}
	for i := len(pts); i < n; i++ {
		pts = append(pts, rcj.Point{
			X:  rng.Float64() * testSpan,
			Y:  rng.Float64() * (testSpan - 60),
			ID: idBase + int64(i),
		})
	}
	return pts
}

// deployment is a full sharded serving stack plus its unsharded reference:
// the same data behind both, so responses must agree byte for byte.
type deployment struct {
	man       *shard.Manifest
	rt        *Router
	router    *httptest.Server
	workers   []*httptest.Server
	reference *httptest.Server
	self      bool
}

func newWorker(t *testing.T, manifestPath string, ids []int) *httptest.Server {
	t.Helper()
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := server.New(sched.New(eng, sched.Config{MaxConcurrent: 4, MaxQueue: 64}),
		server.Config{Backend: rcj.BackendFile})
	if _, err := srv.LoadManifestShards(manifestPath, ids, ""); err != nil {
		t.Fatalf("worker load: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// newDeployment shards the dataset, stands up one worker per entry of
// split (nil entry = all shards), the router over them, and the unsharded
// reference server.
func newDeployment(t *testing.T, self bool, shards int, split [][]int, tweak func(*Config)) *deployment {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	p := testPoints(rng, 300, 0, 499)
	var q []rcj.Point
	if !self {
		q = testPoints(rng, 300, 10000, 501)
	} else {
		p = append(p, rcj.Point{X: 501, Y: 977, ID: 9999})
	}
	dir := t.TempDir()
	manPath := filepath.Join(dir, "deploy.rcjm")
	man, err := shard.Build(manPath, p, q, shard.BuildConfig{
		Shards: shards, MaxDiameter: testMaxD, Name: "deploy",
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	d := &deployment{man: man, self: self}
	var workers []Worker
	for _, ids := range split {
		ts := newWorker(t, manPath, ids)
		d.workers = append(d.workers, ts)
		workers = append(workers, Worker{URL: ts.URL, Shards: ids})
	}

	cfg := Config{Manifest: man, Workers: workers, Fanout: 3, Retries: 1}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d.rt = rt
	d.router = httptest.NewServer(rt.Handler())
	t.Cleanup(d.router.Close)

	// Unsharded reference: one server over the full sets.
	save := func(name string, pts []rcj.Point) string {
		ix, err := rcj.BuildIndex(pts, rcj.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		path := filepath.Join(dir, name)
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	ref := server.New(sched.New(eng, sched.Config{MaxConcurrent: 4, MaxQueue: 64}),
		server.Config{Backend: rcj.BackendFile})
	if err := ref.LoadIndex("p", save("full_p.rcjx", p)); err != nil {
		t.Fatal(err)
	}
	if !self {
		if err := ref.LoadIndex("q", save("full_q.rcjx", q)); err != nil {
			t.Fatal(err)
		}
	}
	d.reference = httptest.NewServer(ref.Handler())
	t.Cleanup(func() {
		d.reference.Close()
		ref.Close()
	})
	return d
}

func postJoin(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /join: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

// splitStream separates result rows from the trailing summary/error object
// of a join response; CSV responses are all rows.
func splitStream(t *testing.T, data []byte, csv bool) (rows []string, extra map[string]json.RawMessage) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if csv || strings.HasPrefix(line, `{"p_id":`) {
			rows = append(rows, line)
			continue
		}
		if extra != nil {
			t.Fatalf("two non-row lines in stream; second: %q", line)
		}
		extra = map[string]json.RawMessage{}
		if err := json.Unmarshal([]byte(line), &extra); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
	}
	return rows, extra
}

func routerSummaryOf(t *testing.T, extra map[string]json.RawMessage) routerSummary {
	t.Helper()
	raw, ok := extra["summary"]
	if !ok {
		t.Fatalf("stream ended without a summary: %v", extra)
	}
	var sum routerSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// queryCase is one predicate combination of the equivalence property.
// ordered cases (top-k) must match the reference byte for byte in order;
// unordered ones after sorting; subset cases (limit without top-k) get
// subset-of-full semantics instead of equality.
type queryCase struct {
	name    string
	fields  map[string]any
	ordered bool
	subset  bool
}

func equivalenceCases() []queryCase {
	return []queryCase{
		{name: "plain", fields: map[string]any{}},
		{name: "tight-diameter", fields: map[string]any{"max_diameter": 120.0}},
		{name: "min-distance", fields: map[string]any{"min_distance": 30.0}},
		{name: "region", fields: map[string]any{"region": []float64{200, 150, 800, 700}}},
		{name: "region-one-cell", fields: map[string]any{"region": []float64{50, 50, 300, 300}}},
		{name: "region-cross", fields: map[string]any{"region": []float64{400, 400, 600, 600}, "max_diameter": 90.0}},
		{name: "combo", fields: map[string]any{"max_diameter": 80.0, "min_distance": 10.0, "region": []float64{100, 0, 900, 800}}},
		{name: "alg-inj", fields: map[string]any{"alg": "inj"}},
		{name: "alg-obj-par", fields: map[string]any{"alg": "obj", "parallelism": 2}},
		{name: "topk", fields: map[string]any{"top_k": 15}, ordered: true},
		{name: "topk-region", fields: map[string]any{"top_k": 10, "region": []float64{0, 0, 600, 1000}}, ordered: true},
		{name: "topk-diameter", fields: map[string]any{"top_k": 5, "max_diameter": 80.0}, ordered: true},
		{name: "topk-limit", fields: map[string]any{"top_k": 8, "limit": 3}, ordered: true},
		{name: "limit", fields: map[string]any{"limit": 20}, subset: true},
	}
}

// bodies renders the router request and the reference request for a case.
// The reference always carries the effective diameter bound the router
// would inject, so both sides answer the same logical query.
func (d *deployment) bodies(t *testing.T, qc queryCase, format string) (routerBody, refBody string) {
	t.Helper()
	mk := func(fields map[string]any) string {
		m := map[string]any{"p": "p", "format": format}
		if d.self {
			m["self"] = true
		} else {
			m["q"] = "q"
		}
		for k, v := range fields {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ref := map[string]any{}
	for k, v := range qc.fields {
		ref[k] = v
	}
	if _, ok := ref["max_diameter"]; !ok {
		ref["max_diameter"] = d.man.MaxDiameter
	}
	return mk(qc.fields), mk(ref)
}

func assertNoDuplicates(t *testing.T, rows []string) {
	t.Helper()
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r] {
			t.Errorf("duplicate row in router output: %s", r)
		}
		seen[r] = true
	}
}

// TestRouterEquivalence is the core property: for every predicate
// combination, in both formats, over pair and self datasets and an uneven
// worker split with a replica, the router's merged answer equals the
// unsharded server's answer.
func TestRouterEquivalence(t *testing.T) {
	for _, mode := range []struct {
		name   string
		self   bool
		shards int
		split  [][]int
	}{
		{"pair-4shards-2workers", false, 4, [][]int{{0, 1, 2}, {3, 1}}},
		{"self-6shards-3workers", true, 6, [][]int{{0, 1}, {2, 3, 4}, {5, 0}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := newDeployment(t, mode.self, mode.shards, mode.split, nil)
			for _, qc := range equivalenceCases() {
				for _, format := range []string{"ndjson", "csv"} {
					t.Run(qc.name+"/"+format, func(t *testing.T) {
						routerBody, refBody := d.bodies(t, qc, format)
						gotStatus, gotData := postJoin(t, d.router.URL, routerBody)
						wantStatus, wantData := postJoin(t, d.reference.URL, refBody)
						if gotStatus != 200 || wantStatus != 200 {
							t.Fatalf("status router=%d reference=%d", gotStatus, wantStatus)
						}
						csv := format == "csv"
						got, extra := splitStream(t, gotData, csv)
						want, _ := splitStream(t, wantData, csv)
						assertNoDuplicates(t, got)
						if !csv {
							sum := routerSummaryOf(t, extra)
							if sum.Results != int64(len(got)) {
								t.Errorf("summary results %d, streamed %d rows", sum.Results, len(got))
							}
						}
						if qc.subset {
							d.assertLimitSubset(t, qc, format, got)
							return
						}
						if !qc.ordered {
							sort.Strings(got)
							sort.Strings(want)
						}
						if len(got) != len(want) {
							t.Fatalf("router %d rows, reference %d", len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("row %d differs:\nrouter:    %s\nreference: %s", i, got[i], want[i])
							}
						}
					})
				}
			}
		})
	}
}

// assertLimitSubset checks limit semantics: the rows are distinct members
// of the full (unlimited) result, and there are exactly min(limit, total).
func (d *deployment) assertLimitSubset(t *testing.T, qc queryCase, format string, got []string) {
	t.Helper()
	full := map[string]any{}
	for k, v := range qc.fields {
		full[k] = v
	}
	delete(full, "limit")
	_, refBody := d.bodies(t, queryCase{fields: full}, format)
	status, data := postJoin(t, d.reference.URL, refBody)
	if status != 200 {
		t.Fatalf("reference status %d", status)
	}
	fullRows, _ := splitStream(t, data, format == "csv")
	universe := map[string]bool{}
	for _, r := range fullRows {
		universe[r] = true
	}
	limit := int(qc.fields["limit"].(int))
	want := limit
	if len(fullRows) < want {
		want = len(fullRows)
	}
	if len(got) != want {
		t.Fatalf("limit %d: router returned %d rows, want %d (full result %d)", limit, len(got), want, len(fullRows))
	}
	for _, r := range got {
		if !universe[r] {
			t.Errorf("limited row not in the full result: %s", r)
		}
	}
}

// TestRouterBoundaryDedup proves the crafted cut-straddling pair is
// emitted by two shards and collapsed to one row.
func TestRouterBoundaryDedup(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{nil}, nil)
	before := d.rt.m.dedupDropped.Load()
	status, data := postJoin(t, d.router.URL, `{"p":"p","q":"q","format":"ndjson"}`)
	if status != 200 {
		t.Fatalf("status %d: %s", status, data)
	}
	rows, extra := splitStream(t, data, false)
	assertNoDuplicates(t, rows)
	straddler := false
	for _, r := range rows {
		if strings.Contains(r, `"cx":500,`) {
			straddler = true
		}
	}
	if !straddler {
		t.Error("crafted straddler pair (center on the x=500 cut) missing from the result")
	}
	if d.rt.m.dedupDropped.Load() == before {
		t.Error("no boundary duplicates dropped; the overlap dedup path was not exercised")
	}
	sum := routerSummaryOf(t, extra)
	if sum.DedupDropped == 0 {
		t.Error("summary dedup_dropped is 0")
	}
}

// TestRouterRegionPruning: a window inside one cell must fan out to that
// shard only and report the others as pruned.
func TestRouterRegionPruning(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{nil, nil}, nil)
	body := `{"p":"p","q":"q","region":[50,50,300,300]}`
	status, data := postJoin(t, d.router.URL, body)
	if status != 200 {
		t.Fatalf("status %d: %s", status, data)
	}
	_, extra := splitStream(t, data, false)
	sum := routerSummaryOf(t, extra)
	if sum.ShardsPruned == 0 {
		t.Errorf("shards_pruned = 0, want > 0 (summary %+v)", sum)
	}
	if sum.ShardsContacted != 1 {
		t.Errorf("shards_contacted = %d, want 1 for a one-cell window", sum.ShardsContacted)
	}
}

// TestRouterDiameterContract: a query bound looser than the manifest's is
// unanswerable (the overlap margin only covers the manifest bound) and
// must be refused with the typed error, not silently mis-answered.
func TestRouterDiameterContract(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{nil}, nil)
	status, data := postJoin(t, d.router.URL,
		fmt.Sprintf(`{"p":"p","q":"q","max_diameter":%g}`, testMaxD*2))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	var e struct {
		Code        string  `json:"code"`
		MaxDiameter float64 `json:"max_diameter"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "max_diameter_exceeds_manifest" || e.MaxDiameter != testMaxD {
		t.Errorf("error %+v, want code=max_diameter_exceeds_manifest max_diameter=%g", e, testMaxD)
	}
}

// TestRouterPartialFailure: with a dead worker and no replica, the failure
// must surface as a typed error — 502 before any rows, the in-band
// {"code":"shard_failure"} record on an already-started stream — never a
// clean-looking truncated 200.
func TestRouterPartialFailure(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{{0, 1}, {2, 3}}, func(c *Config) { c.Retries = 0 })
	d.workers[1].Close()

	status, data := postJoin(t, d.router.URL, `{"p":"p","q":"q"}`)
	switch status {
	case http.StatusBadGateway:
		var e struct {
			Code  string `json:"code"`
			Shard *int   `json:"shard"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != "shard_failure" || e.Shard == nil {
			t.Errorf("502 body %s, want code=shard_failure with a shard id", data)
		}
	case http.StatusOK:
		_, extra := splitStream(t, data, false)
		raw, ok := extra["code"]
		if !ok || string(raw) != `"shard_failure"` {
			t.Errorf("started stream ended without the in-band shard_failure record: %v", extra)
		}
	default:
		t.Fatalf("status %d: %s", status, data)
	}

	// Top-k gathers before writing, so the failure is always a clean 502.
	status, data = postJoin(t, d.router.URL, `{"p":"p","q":"q","top_k":5}`)
	if status != http.StatusBadGateway {
		t.Fatalf("top-k with dead worker: status %d (%s), want 502", status, data)
	}
}

// TestRouterFailover: the same dead worker is survivable when a replica
// owns its shards and retries are on — and the answer is still exact, on
// the forwarding path and on the top-k path alike.
func TestRouterFailover(t *testing.T) {
	for _, tc := range []struct {
		name, fields string
		ordered      bool
	}{
		{"stream", ``, false},
		{"topk", `,"top_k":5`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t, false, 4, [][]int{nil, nil}, func(c *Config) { c.Retries = 1 })
			d.workers[0].Close()

			status, data := postJoin(t, d.router.URL, `{"p":"p","q":"q"`+tc.fields+`}`)
			if status != 200 {
				t.Fatalf("status %d: %s", status, data)
			}
			got, _ := splitStream(t, data, false)
			refStatus, refData := postJoin(t, d.reference.URL,
				fmt.Sprintf(`{"p":"p","q":"q","max_diameter":%g%s}`, testMaxD, tc.fields))
			if refStatus != 200 {
				t.Fatalf("reference status %d", refStatus)
			}
			want, _ := splitStream(t, refData, false)
			if !tc.ordered {
				sort.Strings(got)
				sort.Strings(want)
			}
			if len(got) != len(want) {
				t.Fatalf("failover run returned %d rows, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d differs after failover:\n%s\n%s", i, got[i], want[i])
				}
			}
			if d.rt.m.retries.Load() == 0 {
				t.Error("no retries recorded although half the first picks hit a dead worker")
			}
		})
	}
}

// cutWorker serves a real worker's /join but drops the connection once
// `rows` result lines have been written.
func cutWorker(t *testing.T, inner http.Handler, rows int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&cutWriter{ResponseWriter: w, left: rows}, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// cutWriter forwards `left` writes (rcjd writes one line per call), then
// hijacks the connection and closes it under the handler.
type cutWriter struct {
	http.ResponseWriter
	left int
	cut  bool
}

func (c *cutWriter) Write(b []byte) (int, error) {
	if c.cut {
		return 0, io.ErrClosedPipe
	}
	if c.left == 0 {
		c.cut = true
		c.ResponseWriter.(http.Flusher).Flush()
		conn, _, err := c.ResponseWriter.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return 0, io.ErrClosedPipe
	}
	c.left--
	return c.ResponseWriter.Write(b)
}

func (c *cutWriter) Flush() {
	if !c.cut {
		c.ResponseWriter.(http.Flusher).Flush()
	}
}

// TestRouterNoFailoverAfterForwardedRow: a shard whose stream died after
// some of its rows reached the client must not restart on a replica — the
// replica would send those rows again. The router ends the stream with the
// in-band shard_failure record instead, and counts no retry.
func TestRouterNoFailoverAfterForwardedRow(t *testing.T) {
	const rowsBeforeCut = 5
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	manPath := filepath.Join(dir, "deploy.rcjm")
	man, err := shard.Build(manPath, testPoints(rng, 300, 0, 499), testPoints(rng, 300, 10000, 501),
		shard.BuildConfig{Shards: 1, MaxDiameter: testMaxD, Name: "deploy"})
	if err != nil {
		t.Fatal(err)
	}
	healthy := newWorker(t, manPath, nil)
	flaky := cutWorker(t, newWorker(t, manPath, nil).Config.Handler, rowsBeforeCut)
	// One shard, so the round-robin cursor's first pick is owners[0]: the
	// flaky worker, with the healthy replica next in line.
	rt, err := New(Config{Manifest: man, Workers: []Worker{{URL: flaky.URL}, {URL: healthy.URL}}, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	status, data := postJoin(t, front.URL, `{"p":"p","q":"q"}`)
	if status != 200 {
		t.Fatalf("status %d: %s", status, data)
	}
	rows, extra := splitStream(t, data, false)
	if len(rows) != rowsBeforeCut {
		t.Errorf("%d rows reached the client, want the %d written before the cut", len(rows), rowsBeforeCut)
	}
	assertNoDuplicates(t, rows)
	if raw, ok := extra["code"]; !ok || string(raw) != `"shard_failure"` {
		t.Errorf("stream ended without the in-band shard_failure record: %v", extra)
	}
	if n := rt.m.retries.Load(); n != 0 {
		t.Errorf("subquery_retries = %d, want 0: a half-forwarded shard must not fail over", n)
	}
	if n := rt.m.perWorker[healthy.URL].Load(); n != 0 {
		t.Errorf("healthy replica received %d sub-queries, want 0", n)
	}
}

// TestRouterSubQueriesCarryBound: every sub-query a worker receives carries
// a diameter bound, the manifest's when the client gave none, so a worker's
// window never derives one of its own (rcj.TestRegionBoundScope) and a
// sharded window pays no probe.
func TestRouterSubQueriesCarryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	manPath := filepath.Join(dir, "deploy.rcjm")
	man, err := shard.Build(manPath, testPoints(rng, 300, 0, 499), testPoints(rng, 300, 10000, 501),
		shard.BuildConfig{Shards: 4, MaxDiameter: testMaxD, Name: "deploy"})
	if err != nil {
		t.Fatal(err)
	}
	inner := newWorker(t, manPath, nil).Config.Handler
	var (
		mu   sync.Mutex
		seen []server.JoinRequest
	)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		var req server.JoinRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("sub-query %s: %v", body, err)
		}
		mu.Lock()
		seen = append(seen, req)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	}))
	defer worker.Close()
	rt, err := New(Config{Manifest: man, Workers: []Worker{{URL: worker.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, body := range []string{
		`{"p":"p","q":"q","region":[100,100,700,700]}`,
		`{"p":"p","q":"q","region":[100,100,700,700],"top_k":5}`,
		`{"p":"p","q":"q","region":[400,400,600,600],"max_diameter":90}`,
	} {
		if status, data := postJoin(t, front.URL, body); status != 200 {
			t.Fatalf("%s: status %d: %s", body, status, data)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no sub-query reached the worker")
	}
	for _, req := range seen {
		if len(req.Region) != 4 || !(req.MaxDiameter > 0 && req.MaxDiameter <= testMaxD) {
			t.Errorf("sub-query region %v max_diameter %g: want a window with a bound in (0, %g]", req.Region, req.MaxDiameter, testMaxD)
		}
	}
}

// TestRouterBoundTightening: with serial fan-out and a small k, the first
// shard's answer must tighten the bound later sub-queries carry.
func TestRouterBoundTightening(t *testing.T) {
	d := newDeployment(t, true, 6, [][]int{nil}, func(c *Config) { c.Fanout = 1 })
	status, data := postJoin(t, d.router.URL, `{"p":"p","self":true,"top_k":5}`)
	if status != 200 {
		t.Fatalf("status %d: %s", status, data)
	}
	rows, extra := splitStream(t, data, false)
	if len(rows) != 5 {
		t.Fatalf("top_k=5 returned %d rows", len(rows))
	}
	sum := routerSummaryOf(t, extra)
	if sum.BoundTightenings == 0 {
		t.Error("bound_tightenings = 0 with fanout 1 over 6 shards; republication never happened")
	}
}

// TestRouterHealthAndShards covers the operational surface: /shards lists
// every populated shard with owners, /healthz aggregates worker health.
func TestRouterHealthAndShards(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{nil, nil}, nil)
	resp, err := http.Get(d.router.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	var plan struct {
		Shards []struct {
			Workers []string `json:"workers"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(plan.Shards) == 0 {
		t.Fatal("no shards in /shards")
	}
	for i, sh := range plan.Shards {
		if len(sh.Workers) != 2 {
			t.Errorf("shard %d has %d owners, want 2", i, len(sh.Workers))
		}
	}

	resp, err = http.Get(d.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz %d with all workers up", resp.StatusCode)
	}
	d.workers[0].Close()
	d.workers[1].Close()
	resp, err = http.Get(d.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with workers down, want 503 (%s)", resp.StatusCode, body)
	}
}

// TestRouterOversizeBodyIs413: the router bounds the body it reads and
// refuses a larger one with the typed 413 before planning anything.
func TestRouterOversizeBodyIs413(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{nil}, nil)
	status, data := postJoin(t, d.router.URL, `{"p":"`+strings.Repeat("p", maxRequestBody)+`"}`)
	var e struct{ Code string }
	json.Unmarshal(data, &e)
	if status != http.StatusRequestEntityTooLarge || e.Code != "request_too_large" {
		t.Fatalf("router answered %d %s, want 413 request_too_large", status, data)
	}
	if n := d.rt.m.subqueries.Load(); n != 0 {
		t.Errorf("%d sub-queries dispatched for a refused request", n)
	}
}
