package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/rcj"
)

// newCachingServer stands up a caching Server over two overlapping random
// pointsets (so p⋈q joins actually produce pairs).
func newCachingServer(t *testing.T, n, entries int) (*httptest.Server, *Server) {
	t.Helper()
	dir := t.TempDir()
	mk := func(name string, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]rcj.Point, n)
		for i := range pts {
			pts[i] = rcj.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(i)}
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
		return path
	}
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 1024})
	srv := New(sched.New(eng, sched.Config{MaxConcurrent: 2}),
		Config{Backend: rcj.BackendFile, ResultCacheEntries: entries})
	if err := srv.LoadIndex("p", mk("p.rcjx", 11)); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadIndex("q", mk("q.rcjx", 12)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

// joinBody posts a /join and returns the raw response body.
func joinBody(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp := postJoin(t, ts, body)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}

// splitSummary separates an NDJSON body into pair lines and the summary line.
func splitSummary(t *testing.T, body string) (pairLines string, summary Summary) {
	t.Helper()
	lines := strings.SplitAfter(strings.TrimRight(body, "\n"), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	var wrapped map[string]Summary
	if err := json.Unmarshal([]byte(last), &wrapped); err != nil {
		t.Fatalf("last line is not a summary: %q: %v", last, err)
	}
	return strings.Join(lines[:len(lines)-1], ""), wrapped["summary"]
}

// TestResultCacheHit pins the serving contract of the cache: the second run
// of a bounded query streams byte-identical pair lines without touching the
// scheduler, and its summary carries the original statistics plus the
// cached marker.
func TestResultCacheHit(t *testing.T) {
	ts, srv := newCachingServer(t, 600, 16)
	const q = `{"p":"p","q":"q","top_k":5}`

	first := joinBody(t, ts, q)
	firstPairs, firstSum := splitSummary(t, first)
	if firstSum.Cached {
		t.Fatal("first run claims to be cached")
	}
	admitted := srv.sched.Snapshot().Admitted

	second := joinBody(t, ts, q)
	secondPairs, secondSum := splitSummary(t, second)
	if secondPairs != firstPairs {
		t.Fatalf("cached pair lines differ from the original stream:\n%q\nvs\n%q", secondPairs, firstPairs)
	}
	if !secondSum.Cached {
		t.Fatal("cache hit not marked cached in the summary")
	}
	if secondSum.Results != firstSum.Results || secondSum.NodeAccesses != firstSum.NodeAccesses {
		t.Fatalf("cached summary stats %+v differ from original %+v", secondSum, firstSum)
	}
	if got := srv.sched.Snapshot().Admitted; got != admitted {
		t.Fatalf("cache hit went through admission control (admitted %d -> %d)", admitted, got)
	}
	cs := srv.cache.snapshot()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Stores != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / 1 store / 1 entry", cs)
	}

	// CSV replays from the same entry, byte-identical too (the cache stores
	// pairs, not bytes, so both formats are served).
	csvQ := `{"p":"p","q":"q","top_k":5,"format":"csv"}`
	csv1 := joinBody(t, ts, csvQ)
	csv2 := joinBody(t, ts, csvQ)
	if csv1 != csv2 {
		t.Fatalf("cached CSV differs:\n%q\nvs\n%q", csv2, csv1)
	}
}

// TestResultCacheKeyDiscrimination: different predicates, different shapes,
// and self-vs-pair joins never collide.
func TestResultCacheKeyDiscrimination(t *testing.T) {
	ts, srv := newCachingServer(t, 400, 16)
	bodies := []string{
		`{"p":"p","q":"q","top_k":3}`,
		`{"p":"p","q":"q","top_k":4}`,
		`{"p":"p","q":"q","limit":3}`,
		`{"p":"p","self":true,"top_k":3}`,
		`{"p":"q","self":true,"top_k":3}`,
	}
	for _, b := range bodies {
		joinBody(t, ts, b)
	}
	cs := srv.cache.snapshot()
	if cs.Stores != int64(len(bodies)) || cs.Hits != 0 {
		t.Fatalf("cache stats = %+v, want %d distinct stores and no hits", cs, len(bodies))
	}
}

// TestResultCacheUncacheable: unbounded queries never enter the cache.
func TestResultCacheUncacheable(t *testing.T) {
	ts, srv := newCachingServer(t, 400, 16)
	bodies := []string{
		`{"p":"p","q":"q"}`,                    // unbounded
		`{"p":"p","q":"q","max_diameter":100}`, // still unbounded in count
		`{"p":"p","q":"q","limit":5000000}`,    // bounded, but looser than maxPairs
	}
	for _, b := range bodies {
		joinBody(t, ts, b)
		joinBody(t, ts, b)
	}
	cs := srv.cache.snapshot()
	if cs.Stores != 0 || cs.Hits != 0 || cs.Entries != 0 {
		t.Fatalf("uncacheable queries touched the cache: %+v", cs)
	}
}

// TestResultCacheIgnoresParallelism: "parallelism" is no request field, so a
// body naming it asks for the same query as one without it — it stores and
// hits under the same key, with the same rows.
func TestResultCacheIgnoresParallelism(t *testing.T) {
	ts, srv := newCachingServer(t, 400, 16)
	for i, bodies := range [][2]string{
		{`{"p":"p","q":"q","limit":5,"format":"csv"}`, `{"p":"p","q":"q","limit":5,"parallelism":2,"format":"csv"}`},
		{`{"p":"p","q":"q","top_k":5,"parallelism":2,"format":"csv"}`, `{"p":"p","q":"q","top_k":5,"format":"csv"}`},
	} {
		stored := joinBody(t, ts, bodies[0])
		if hit := joinBody(t, ts, bodies[1]); hit != stored {
			t.Errorf("%s answered\n%q\nafter %s answered\n%q", bodies[1], hit, bodies[0], stored)
		}
		if cs := srv.cache.snapshot(); cs.Stores != int64(i+1) || cs.Hits != int64(i+1) {
			t.Fatalf("after %s and %s: cache stats %+v, want %d stores and %d hits", bodies[0], bodies[1], cs, i+1, i+1)
		}
	}
}

// TestResultCacheUnloadInvalidation pins the invalidation story end to end:
// entries survive a refused unload (index pinned by an in-flight join),
// are purged the moment the unload succeeds, and a same-name reload gets a
// fresh generation so the old results can never be served again.
func TestResultCacheUnloadInvalidation(t *testing.T) {
	ts, srv := newCachingServer(t, 400, 16)
	joinBody(t, ts, `{"p":"p","q":"q","top_k":5}`)
	joinBody(t, ts, `{"p":"p","self":true,"top_k":5}`)
	if cs := srv.cache.snapshot(); cs.Entries != 2 {
		t.Fatalf("entries = %d, want 2", cs.Entries)
	}
	if got := srv.cache.countFor("q"); got != 1 {
		t.Fatalf("countFor(q) = %d, want 1", got)
	}

	// Pin q as an in-flight join would; the unload must refuse and leave the
	// cache intact.
	e, ok := srv.acquire("q")
	if !ok {
		t.Fatal("acquire q")
	}
	qPath := e.path
	qGen := e.gen
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/indexes/q", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("busy unload status %d, want 409", resp.StatusCode)
	}
	if cs := srv.cache.snapshot(); cs.Entries != 2 || cs.Invalidations != 0 {
		t.Fatalf("refused unload touched the cache: %+v", cs)
	}
	// A hit still works while the unload is being refused.
	_, sum := splitSummary(t, joinBody(t, ts, `{"p":"p","q":"q","top_k":5}`))
	if !sum.Cached {
		t.Fatal("expected a cache hit while the index is pinned")
	}

	srv.release(e)
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unload status %d, want 200", resp2.StatusCode)
	}
	cs := srv.cache.snapshot()
	if cs.Entries != 1 || cs.Invalidations != 1 {
		t.Fatalf("unload purge: %+v, want 1 surviving entry (the self-join on p) and 1 invalidation", cs)
	}
	if got := srv.cache.countFor("p"); got != 1 {
		t.Fatalf("countFor(p) = %d, want 1 (self-join survives)", got)
	}

	// Reload under the same name: fresh generation, so the old key cannot
	// hit even in principle; the identical query misses and re-stores.
	if err := srv.LoadIndex("q", qPath); err != nil {
		t.Fatal(err)
	}
	e2, _ := srv.lookup("q")
	if e2.gen == qGen {
		t.Fatalf("reload reused generation %d", qGen)
	}
	_, sum2 := splitSummary(t, joinBody(t, ts, `{"p":"p","q":"q","top_k":5}`))
	if sum2.Cached {
		t.Fatal("stale cache hit after unload+reload")
	}
	if cs := srv.cache.snapshot(); cs.Stores != 3 {
		t.Fatalf("stores = %d, want 3 (re-stored after reload)", cs.Stores)
	}
}

// TestResultCacheLRUEviction: the oldest entry leaves when capacity is hit.
func TestResultCacheLRUEviction(t *testing.T) {
	ts, srv := newCachingServer(t, 400, 2)
	joinBody(t, ts, `{"p":"p","q":"q","top_k":1}`)
	joinBody(t, ts, `{"p":"p","q":"q","top_k":2}`)
	joinBody(t, ts, `{"p":"p","q":"q","top_k":1}`) // hit: bumps top_k=1 to front
	joinBody(t, ts, `{"p":"p","q":"q","top_k":3}`) // evicts top_k=2
	_, sum := splitSummary(t, joinBody(t, ts, `{"p":"p","q":"q","top_k":2}`))
	if sum.Cached {
		t.Fatal("evicted entry served a hit")
	}
	cs := srv.cache.snapshot()
	if cs.Evictions != 2 || cs.Entries != 2 {
		t.Fatalf("cache stats = %+v, want 2 evictions and 2 entries", cs)
	}
}

// TestResultCacheMetricsExposed: the cache shows up in both metric formats
// and in GET /indexes.
func TestResultCacheMetricsExposed(t *testing.T) {
	ts, _ := newCachingServer(t, 400, 16)
	joinBody(t, ts, `{"p":"p","q":"q","top_k":2}`)
	joinBody(t, ts, `{"p":"p","q":"q","top_k":2}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ResultCache cacheStats `json:"result_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.ResultCache.Hits != 1 || m.ResultCache.Stores != 1 {
		t.Fatalf("JSON metrics result_cache = %+v", m.ResultCache)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rcjd_result_cache_hits_total 1",
		"rcjd_result_cache_stores_total 1",
		"rcjd_result_cache_entries 1",
		"rcjd_remote_shared_total",
		"rcjd_remote_coalesced_total",
		"rcjd_pool_shared_loads_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/indexes")
	if err != nil {
		t.Fatal(err)
	}
	var infos []indexInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, info := range infos {
		if info.Generation == 0 {
			t.Errorf("index %s has zero generation", info.Name)
		}
		if info.CachedResults != 1 {
			t.Errorf("index %s cached_results = %d, want 1", info.Name, info.CachedResults)
		}
	}
}

// TestJoinSameNameIsSelf pins the wire's two spellings of the self-join:
// naming one index on both sides is the same request as "self" — the same
// bytes in both formats, and the second spelling is a result-cache hit on
// the first's entry. Saying both stays a 400.
func TestJoinSameNameIsSelf(t *testing.T) {
	ts, srv := newCachingServer(t, 400, 16)
	for _, format := range []string{"", `,"format":"csv"`} {
		named := joinBody(t, ts, `{"p":"p","q":"p","top_k":7`+format+`}`)
		flagged := joinBody(t, ts, `{"p":"p","self":true,"top_k":7`+format+`}`)
		if format == "" {
			pairs, sum := splitSummary(t, named)
			flaggedPairs, flaggedSum := splitSummary(t, flagged)
			if sum.Results != 7 || sum.Cached || !flaggedSum.Cached {
				t.Fatalf("summaries: named %+v, flagged %+v; want 7 fresh results, then a cache hit", sum, flaggedSum)
			}
			named, flagged = pairs, flaggedPairs
		}
		if named != flagged {
			t.Errorf("format %q: {p:p,q:p} and {p:p,self:true} answer differently:\n%q\nvs\n%q", format, named, flagged)
		}
	}
	if cs := srv.cache.snapshot(); cs.Stores != 1 || cs.Hits != 3 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want one entry stored once and hit by the three other requests", cs)
	}
	// A self-join answer is canonical: no identity pairs, P.ID < Q.ID.
	resp := postJoin(t, ts, `{"p":"p","q":"p","top_k":7}`)
	pairs, _ := decodeStream(t, resp.Body)
	resp.Body.Close()
	for _, pr := range pairs {
		if pr.P.ID >= pr.Q.ID {
			t.Errorf("{p:p,q:p} returned the non-canonical pair <%d,%d>", pr.P.ID, pr.Q.ID)
		}
	}
	resp = postJoin(t, ts, `{"p":"p","q":"p","self":true}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf(`{"p":"p","q":"p","self":true}: status %d, want 400`, resp.StatusCode)
	}
}

// TestJoinPlannedOnce: one /join request is one planning step in /metrics —
// exactly one of plan.auto / plan.fixed moves, by one, and one rule.
func TestJoinPlannedOnce(t *testing.T) {
	ts, _ := newCachingServer(t, 400, 16)
	type planMetrics struct {
		Auto, Fixed int64
		Rules       map[string]int64
	}
	read := func() planMetrics {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m struct {
			Plan planMetrics `json:"plan"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Plan
	}
	for _, tc := range []struct {
		body        string
		auto, fixed int64
	}{
		{`{"p":"p","q":"q"}`, 1, 0},
		{`{"p":"p","self":true,"max_diameter":50}`, 1, 0},
		{`{"p":"p","q":"q","alg":"obj"}`, 0, 1},
	} {
		before := read()
		_, sum := splitSummary(t, joinBody(t, ts, tc.body))
		after := read()
		if after.Auto-before.Auto != tc.auto || after.Fixed-before.Fixed != tc.fixed {
			t.Errorf("%s: plan.auto %d -> %d, plan.fixed %d -> %d; want +%d / +%d",
				tc.body, before.Auto, after.Auto, before.Fixed, after.Fixed, tc.auto, tc.fixed)
		}
		var moved []string
		for rule, n := range after.Rules {
			if n != before.Rules[rule] {
				moved = append(moved, rule)
			}
		}
		if len(moved) != 1 || after.Rules[moved[0]]-before.Rules[moved[0]] != 1 || (moved[0] == "fixed") != (tc.fixed == 1) {
			t.Errorf("%s: plan.rules moved %v (%v -> %v), want one rule by one", tc.body, moved, before.Rules, after.Rules)
		}
		if len(moved) == 1 && !strings.Contains(sum.Plan, "rule="+moved[0]) {
			t.Errorf("%s: summary plan %q does not name the counted rule %q", tc.body, sum.Plan, moved[0])
		}
	}
}

// TestResultCacheKeepsRankedHits: every join runs on one goroutine, so a
// planner-resolved top-k plans par=1 and its repeat is a byte-identical
// cache hit. The control is a join with a min-distance floor, which runs to
// completion on the R-tree (the full join runs on the Gabriel path): it
// plans par=1 too.
func TestResultCacheKeepsRankedHits(t *testing.T) {
	ts, srv := newCachingServer(t, 4000, 16)
	if _, sum := splitSummary(t, joinBody(t, ts, `{"p":"p","q":"q","min_distance":0.001}`)); !strings.Contains(sum.Plan, "par=1 rule=default-obj") {
		t.Fatalf("min-distance join plans %q, want par=1 on default-obj", sum.Plan)
	}
	const q = `{"p":"p","q":"q","top_k":10}`
	firstPairs, first := splitSummary(t, joinBody(t, ts, q))
	if !strings.Contains(first.Plan, "par=1") || first.Cached {
		t.Fatalf("first top-k run: plan %q, cached %v; want a fresh sequential run", first.Plan, first.Cached)
	}
	secondPairs, second := splitSummary(t, joinBody(t, ts, q))
	if !second.Cached || secondPairs != firstPairs {
		t.Fatalf("repeat of the top-k: cached %v, same pairs %v; want a byte-identical hit", second.Cached, secondPairs == firstPairs)
	}
	if cs := srv.cache.snapshot(); cs.Hits != 1 || cs.Stores != 1 {
		t.Fatalf("cache stats = %+v, want the top-k stored once and hit once", cs)
	}
}
