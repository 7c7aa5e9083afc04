package server

import (
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

// newOverlapServer stands up a Server over two saved indexes whose
// pointsets overlap in space — unlike the disjoint grids of newTestServer,
// the join has many pairs, which the predicate tests need.
func newOverlapServer(t *testing.T, n int, cfg sched.Config) (*httptest.Server, *Server) {
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
	srv := New(sched.New(eng, cfg), Config{Backend: rcj.BackendFile})
	if err := srv.LoadIndex("p", mk("p.rcjx", 1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadIndex("q", mk("q.rcjx", 2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

// TestJoinPredicates exercises the pushdown fields of POST /join: a top_k
// request returns exactly the k tightest pairs of the full join in ranking
// order, region/max_diameter return the post-filtered subset, and the
// summary line reports the pruning.
func TestJoinPredicates(t *testing.T) {
	ts, _ := newOverlapServer(t, 1500, sched.Config{MaxConcurrent: 2})

	resp := postJoin(t, ts, `{"p":"p","q":"q"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full join status %d", resp.StatusCode)
	}
	full, _ := decodeStream(t, resp.Body)
	resp.Body.Close()

	t.Run("top_k", func(t *testing.T) {
		resp := postJoin(t, ts, `{"p":"p","q":"q","top_k":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		pairs, summary := decodeStream(t, resp.Body)
		resp.Body.Close()
		if len(pairs) != 5 {
			t.Fatalf("top_k=5 returned %d pairs", len(pairs))
		}
		want := append([]rcj.Pair(nil), full...)
		rcj.SortPairsByDiameter(want)
		for i, pr := range pairs {
			if pr.P.ID != want[i].P.ID || pr.Q.ID != want[i].Q.ID {
				t.Errorf("rank %d: got (%d,%d), want (%d,%d)", i, pr.P.ID, pr.Q.ID, want[i].P.ID, want[i].Q.ID)
			}
		}
		if summary == nil || summary.NodesPruned == 0 {
			t.Errorf("summary = %+v, want NodesPruned > 0", summary)
		}
		if summary.Results != 5 {
			t.Errorf("summary.Results = %d, want 5", summary.Results)
		}
	})

	t.Run("max_diameter_region", func(t *testing.T) {
		q := rcj.Query{MaxDiameter: 80, Region: &rcj.Rect{MinX: 100, MinY: 100, MaxX: 600, MaxY: 600}}
		resp := postJoin(t, ts, `{"p":"p","q":"q","max_diameter":80,"region":[100,100,600,600]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		pairs, _ := decodeStream(t, resp.Body)
		resp.Body.Close()
		var want []rcj.Pair
		for _, pr := range full {
			if q.Matches(pr) {
				want = append(want, pr)
			}
		}
		if len(pairs) != len(want) {
			t.Fatalf("constrained join returned %d pairs, post-filter says %d", len(pairs), len(want))
		}
		key := func(p rcj.Pair) [2]int64 { return [2]int64{p.P.ID, p.Q.ID} }
		got := make(map[[2]int64]bool, len(pairs))
		for _, pr := range pairs {
			got[key(pr)] = true
		}
		for _, pr := range want {
			if !got[key(pr)] {
				t.Errorf("missing pair (%d,%d)", pr.P.ID, pr.Q.ID)
			}
		}
	})

	// The predicate rules are tabled in router.TestJoinRequestOneDefinition;
	// here, that a predicate the shared function rejects is a 400.
	t.Run("validation", func(t *testing.T) {
		for _, body := range []string{
			`{"p":"p","q":"q","top_k":-1}`,
			`{"p":"p","q":"q","region":[5,5,1,1]}`,
		} {
			resp := postJoin(t, ts, body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
			}
		}
	})
}

// TestUnloadIndex covers the DELETE /indexes/{name} lifecycle: unknown
// names 404, a loaded index unloads cleanly, joins against it then 404, and
// a reload under the same name works.
func TestUnloadIndex(t *testing.T) {
	ts, srv := newOverlapServer(t, 300, sched.Config{MaxConcurrent: 2})

	del := func(name string) *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/indexes/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := del("nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown unload status %d, want 404", resp.StatusCode)
	}

	e, _ := srv.lookup("q")
	qPath := e.path
	resp = del("q")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload status %d, want 200", resp.StatusCode)
	}
	if _, ok := srv.lookup("q"); ok {
		t.Fatal("q still registered after unload")
	}

	resp = postJoin(t, ts, `{"p":"p","q":"q"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("join against unloaded index: status %d, want 404", resp.StatusCode)
	}

	if err := srv.LoadIndex("q", qPath); err != nil {
		t.Fatalf("reload after unload: %v", err)
	}
	resp = postJoin(t, ts, `{"p":"p","q":"q","top_k":3}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join after reload: status %d", resp.StatusCode)
	}
	pairs, _ := decodeStream(t, resp.Body)
	if len(pairs) != 3 {
		t.Fatalf("join after reload returned %d pairs, want 3", len(pairs))
	}
}

// TestUnloadBusyIndex checks the in-flight protection: while a join
// references an index, DELETE returns 409 and the index survives; once the
// reference is released the unload succeeds. The pin is taken directly
// (deterministic — HTTP streams can drain at any speed); the handler's own
// acquire/release is covered by the post-drain unload of
// TestJoinPredicates-style streams in TestUnloadIndex.
func TestUnloadBusyIndex(t *testing.T) {
	ts, srv := newOverlapServer(t, 300, sched.Config{MaxConcurrent: 2})

	e, ok := srv.acquire("q")
	if !ok {
		t.Fatal("acquire q")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/indexes/q", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("unload of busy index: status %d, want 409", dresp.StatusCode)
	}
	if dresp.Header.Get("Retry-After") == "" {
		t.Error("409 response missing Retry-After")
	}
	if _, ok := srv.lookup("q"); !ok {
		t.Fatal("busy index was unloaded anyway")
	}

	// A join through the handler still works while another request pins the
	// index (shared read access).
	jresp := postJoin(t, ts, `{"p":"p","q":"q","top_k":1}`)
	io.Copy(io.Discard, jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("join while pinned: status %d", jresp.StatusCode)
	}

	srv.release(e)
	dresp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusOK {
		t.Fatalf("unload after release: status %d, want 200", dresp2.StatusCode)
	}
}

// TestMetricsProm checks the Prometheus exposition: selected via query
// param or Accept header, well-formed families, JSON stays the default.
func TestMetricsProm(t *testing.T) {
	ts, _ := newOverlapServer(t, 300, sched.Config{MaxConcurrent: 2})
	resp := postJoin(t, ts, `{"p":"p","q":"q","top_k":2}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	get := func(url string, accept string) (int, string, string) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		body, _ := io.ReadAll(r.Body)
		return r.StatusCode, r.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get(ts.URL+"/metrics?format=prom", "")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("prom metrics: status %d content-type %q", code, ctype)
	}
	for _, want := range []string{
		"# TYPE rcjd_sched_in_flight gauge",
		"# TYPE rcjd_sched_completed_total counter",
		"rcjd_sched_pairs_emitted_total 2",
		`rcjd_requests_total{endpoint="join"} 1`,
		"rcjd_pool_shards",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q\n%s", want, body)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	code, ctype, body2 := get(ts.URL+"/metrics", "text/plain")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(body2, "rcjd_sched_in_flight") {
		t.Fatalf("Accept: text/plain did not select prom exposition (status %d, content-type %q)", code, ctype)
	}

	code, ctype, body3 := get(ts.URL+"/metrics", "")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("default metrics: status %d content-type %q", code, ctype)
	}
	if !strings.Contains(body3, `"sched"`) {
		t.Errorf("default JSON metrics missing sched block: %s", body3)
	}
}
