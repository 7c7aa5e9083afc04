package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/rcj"
)

// FuzzJoinBody throws arbitrary bytes at POST /join on a server holding two
// tiny indexes: the handler must not panic or answer 500, and every 200
// NDJSON stream must end in a summary or an error line.
func FuzzJoinBody(f *testing.F) {
	for _, seed := range []string{
		`{"p":"p","q":"q"}`,
		`{"p":"p","self":true,"format":"csv"}`,
		`{"p":"q","q":"p","alg":"brute","parallelism":4}`,
		`{"p":"p","q":"q","alg":"inj","top_k":3,"max_diameter":200}`,
		`{"p":"p","self":true,"limit":2,"min_distance":5,"region":[0,0,500,500]}`,
		`{"p":"p","q":"q","metric":"l1","timeout_ms":1}`,
		`{"p":"nope","q":"q"}`,
		`{"p":"p","q":"q","region":[1,2]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	_, srv := newTestServer(f, 40, sched.Config{MaxConcurrent: 2, MaxQueue: 4})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/join", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("body %q: 500 %s", body, rec.Body)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/x-ndjson" {
			return
		}
		var last string
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			last = sc.Text()
		}
		var end map[string]json.RawMessage
		if err := json.Unmarshal([]byte(last), &end); err != nil || (end["summary"] == nil && end["error"] == nil) {
			t.Fatalf("body %q: 200 stream ends in %q, not a summary or an error line", body, last)
		}
	})
}

// FuzzMutateBody throws arbitrary bytes at POST /indexes/m/points on a tiny
// live index: the status must be 200, 400 or 413, and a rejected batch must
// leave the index's epoch and size unchanged.
func FuzzMutateBody(f *testing.F) {
	for _, seed := range []string{
		`{"insert":[{"id":100,"x":1,"y":2}],"delete":[1,2]}`,
		`{"insert":[{"id":1,"x":0,"y":0}]}`,
		`{"delete":[99]}`,
		`{"insert":[{"id":100,"x":1e400,"y":2}]}`,
		`{"insert":[{"id":100,"x":1,"y":2},{"id":100,"x":3,"y":4}]}`,
		`{"insert":[{"id":5,"x":1,"y":2}],"delete":[5]}`,
		`{"insert":null,"delete":null}`,
		`{}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	_, srv := newTestServer(f, 10, sched.Config{MaxConcurrent: 2, MaxQueue: 4})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// A fresh index per input: points 0..7, one batch applied. The
		// unload fails only on the first input, before "m" exists.
		_ = srv.UnloadIndex("m")
		if err := srv.LoadMutableIndex("m", "", -1, 0); err != nil {
			t.Fatal(err)
		}
		e, _ := srv.acquire("m")
		defer srv.release(e)
		pts := make([]rcj.Point, 8)
		for i := range pts {
			pts[i] = rcj.Point{X: float64(i), Y: float64(i * i), ID: int64(i)}
		}
		if _, err := e.ix.Insert(pts...); err != nil {
			t.Fatal(err)
		}
		epoch, n := e.ix.Epoch(), e.ix.Len()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/indexes/m/points", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if e.ix.Epoch() != epoch || e.ix.Len() != n {
				t.Fatalf("body %q: %d, but epoch %d -> %d, len %d -> %d", body, rec.Code, epoch, e.ix.Epoch(), n, e.ix.Len())
			}
		default:
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
	})
}
