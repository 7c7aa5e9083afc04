package router

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/rcj"
)

// TestJoinRequestOneDefinition drives one table through both readers of the
// /join wire format. Each body goes to server.JoinRequest.Query — the one
// function that turns a request into a query — and to a router whose worker
// is a recorder: what the router forwards for a shard must decode, by that
// same function, to the query the router validated, narrowed only by the
// shard's cell, the diameter contract and the NDJSON format. Rejections
// split into the shared rules (both tiers answer 400 from Query's error) and
// the router's own (the body is a fine worker request; the manifest says no).
func TestJoinRequestOneDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	man, err := shard.Build(filepath.Join(t.TempDir(), "deploy.rcjm"),
		testPoints(rng, 120, 0, 499), testPoints(rng, 120, 10000, 501),
		shard.BuildConfig{Shards: 4, MaxDiameter: testMaxD, Name: "deploy"})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var forwarded []server.JoinRequest
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.JoinRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("worker cannot decode the forwarded request: %v", err)
		}
		mu.Lock()
		forwarded = append(forwarded, req)
		mu.Unlock()
		w.Write([]byte(`{"summary":{}}` + "\n"))
	}))
	defer worker.Close()
	rt, err := New(Config{Manifest: man, Workers: []Worker{{URL: worker.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	window := &rcj.Rect{MinX: 100, MinY: 100, MaxX: 600, MaxY: 600}
	cases := []struct {
		name string
		body string
		// want is the query the body asks for; nil when the shared rules
		// reject it.
		want *rcj.Query
		csv  bool
		// code is the router's typed rejection for a body the shared rules
		// accept ("" = the router serves it).
		code string
	}{
		{name: "plain", body: `{"p":"p","q":"q"}`, want: &rcj.Query{}},
		{name: "auto", body: `{"p":"p","q":"q","alg":"auto","format":"ndjson"}`, want: &rcj.Query{}},
		{name: "forced-inj", body: `{"p":"p","q":"q","alg":"inj"}`, want: &rcj.Query{Algorithm: rcj.INJ, ForceAlgorithm: true}},
		// "parallelism" is no request field: a body naming it asks for the
		// same query as one without it, whatever its value.
		{name: "obj-par-csv", body: `{"p":"p","q":"q","alg":"obj","parallelism":2,"format":"csv"}`,
			want: &rcj.Query{Algorithm: rcj.OBJ, ForceAlgorithm: true}, csv: true},
		{name: "predicates", body: `{"p":"p","q":"q","max_diameter":80,"min_distance":10,"region":[100,100,600,600]}`,
			want: &rcj.Query{MaxDiameter: 80, MinDistance: 10, Region: window}},
		{name: "topk-limit", body: `{"q":"q","top_k":8,"limit":3,"timeout_ms":500}`, want: &rcj.Query{TopK: 8, Limit: 3}},
		{name: "neg-parallelism", body: `{"p":"p","q":"q","parallelism":-1}`, want: &rcj.Query{}},

		{name: "bad-alg", body: `{"p":"p","q":"q","alg":"warp"}`},
		// BIJ left the serving surface (it stays in internal/exp for Fig. 13).
		{name: "removed-bij", body: `{"p":"p","q":"q","alg":"bij"}`},
		{name: "bad-format", body: `{"p":"p","q":"q","format":"xml"}`},
		{name: "neg-top-k", body: `{"p":"p","q":"q","top_k":-1}`},
		{name: "neg-limit", body: `{"p":"p","q":"q","limit":-1}`},
		{name: "neg-max-diameter", body: `{"p":"p","q":"q","max_diameter":-2}`},
		{name: "neg-min-distance", body: `{"p":"p","q":"q","min_distance":-1}`},
		{name: "short-region", body: `{"p":"p","q":"q","region":[1,2,3]}`},
		{name: "empty-region", body: `{"p":"p","q":"q","region":[5,5,1,1]}`},

		{name: "beyond-manifest", body: `{"p":"p","q":"q","max_diameter":500}`,
			want: &rcj.Query{MaxDiameter: 500}, code: "max_diameter_exceeds_manifest"},
		{name: "self-on-two-set", body: `{"p":"p","self":true}`, want: &rcj.Query{}, code: "bad_request"},
		{name: "unknown-q", body: `{"p":"p","q":"nope"}`, want: &rcj.Query{}, code: "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req server.JoinRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			qry, csv, err := req.Query()
			if (err == nil) != (tc.want != nil) {
				t.Fatalf("Query() error = %v, want accepted = %v", err, tc.want != nil)
			}
			if err == nil && (csv != tc.csv || !sameQuery(qry, *tc.want)) {
				t.Errorf("Query() = %+v csv=%v, want %+v csv=%v", qry, csv, *tc.want, tc.csv)
			}

			mu.Lock()
			forwarded = nil
			mu.Unlock()
			status, data := postJoin(t, router.URL, tc.body)
			mu.Lock()
			defer mu.Unlock()
			if tc.want == nil || tc.code != "" {
				var e struct{ Code string }
				json.Unmarshal(data, &e)
				if want := cmp.Or(tc.code, "bad_request"); status != http.StatusBadRequest || e.Code != want {
					t.Fatalf("router answered %d %s, want 400 %s", status, data, want)
				}
				if len(forwarded) != 0 {
					t.Errorf("router forwarded %d sub-queries of a request it rejected", len(forwarded))
				}
				return
			}
			if status != http.StatusOK {
				t.Fatalf("router answered %d %s", status, data)
			}
			var region *shard.Rect
			if w := tc.want.Region; w != nil {
				region = &shard.Rect{w.MinX, w.MinY, w.MaxX, w.MaxY}
			}
			subs, _ := rt.plan(region)
			if len(forwarded) != len(subs) {
				t.Fatalf("%d sub-queries forwarded, plan has %d", len(forwarded), len(subs))
			}
			planned := map[[2]string]shard.Rect{}
			for _, sub := range subs {
				planned[[2]string{shard.IndexName(sub.shardID, "p"), shard.IndexName(sub.shardID, "q")}] = sub.region
			}
			for _, sr := range forwarded {
				cell, ok := planned[[2]string{sr.P, sr.Q}]
				if !ok || sr.Self {
					t.Fatalf("sub-query addresses p=%q q=%q self=%v, not a planned shard", sr.P, sr.Q, sr.Self)
				}
				got, csv, err := sr.Query()
				if err != nil || csv {
					t.Fatalf("forwarded request %+v: Query() csv=%v err=%v, want a valid NDJSON request", sr, csv, err)
				}
				want := *tc.want
				want.Region = &rcj.Rect{MinX: cell[0], MinY: cell[1], MaxX: cell[2], MaxY: cell[3]}
				if want.MaxDiameter == 0 {
					want.MaxDiameter = man.MaxDiameter
				}
				if !sameQuery(got, want) || sr.TimeoutMS != req.TimeoutMS {
					t.Errorf("shard %s decodes to %+v (timeout %d), router validated %+v (timeout %d)", sr.P, got, sr.TimeoutMS, want, req.TimeoutMS)
				}
			}
		})
	}
}

// sameQuery compares the fields a request can set.
func sameQuery(a, b rcj.Query) bool {
	if (a.Region == nil) != (b.Region == nil) || a.Region != nil && *a.Region != *b.Region {
		return false
	}
	a.Region, b.Region = nil, nil
	return a.Algorithm == b.Algorithm && a.ForceAlgorithm == b.ForceAlgorithm && a.Canonical() == b.Canonical()
}
