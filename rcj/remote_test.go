package rcj

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// serveDir serves dir over an httptest file server, with an optional
// per-request latency so prefetch has round trips worth hiding.
func serveDir(t *testing.T, dir string, latency time.Duration) *httptest.Server {
	t.Helper()
	fs := http.FileServer(http.Dir(dir))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if latency > 0 {
			time.Sleep(latency)
		}
		fs.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestOpenIndexURLEndToEnd is the tentpole acceptance test: Engine.OpenIndex
// on an httptest URL yields joins identical to the file backend over the
// same .rcjx, with every fetched page checksum-verified and prefetch hits
// visible in the pool stats.
func TestOpenIndexURLEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := randomPoints(rng, 500)
	qs := randomPoints(rng, 450)
	dir := t.TempDir()
	build := NewEngine(EngineConfig{})
	for name, pts := range map[string][]Point{"p.rcjx": ps, "q.rcjx": qs} {
		ix, err := build.BuildIndex(pts, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		ix.Close()
	}

	ctx := context.Background()
	fileEng := NewEngine(EngineConfig{BufferPages: 256})
	fileP, err := fileEng.OpenIndex(filepath.Join(dir, "p.rcjx"), IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer fileP.Close()
	fileQ, err := fileEng.OpenIndex(filepath.Join(dir, "q.rcjx"), IndexConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer fileQ.Close()
	wantPairs, _, err := fileEng.RunCollect(ctx, fileQ, fileP, Query{})
	want := collectSorted(t, wantPairs, Stats{}, err)

	srv := serveDir(t, dir, 200*time.Microsecond)
	eng := NewEngine(EngineConfig{BufferPages: 256})
	ixP, err := eng.OpenIndex(srv.URL+"/p.rcjx", IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.OpenIndex(srv.URL+"/q.rcjx", IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixQ.Close()
	if ixP.Backend() != BackendHTTP {
		t.Fatalf("Backend() = %v, want http", ixP.Backend())
	}
	if ixP.Len() != len(ps) || ixQ.Len() != len(qs) {
		t.Fatalf("remote sizes %d/%d, want %d/%d", ixP.Len(), ixQ.Len(), len(ps), len(qs))
	}

	gotPairs, st, err := eng.RunCollect(ctx, ixQ, ixP, Query{})
	got := collectSorted(t, gotPairs, st, err)
	equalPairs(t, "remote vs file", got, want)

	rs, ok := ixP.RemoteStats()
	if !ok || rs.Fetches == 0 || rs.BytesFetched == 0 {
		t.Fatalf("remote stats = %+v, ok=%v; want fetches", rs, ok)
	}
	if _, ok := ixP.PrefetchStats(); !ok {
		t.Fatal("remote index has no prefetcher")
	}
	pf, _ := ixP.PrefetchStats()
	qf, _ := ixQ.PrefetchStats()
	if pf.Offered+qf.Offered == 0 {
		t.Fatalf("no readahead offered: %+v / %+v", pf, qf)
	}
	if hits := eng.BufferStats().PrefetchHits; hits == 0 {
		t.Fatalf("no prefetch hits in pool stats (prefetch %+v / %+v)", pf, qf)
	}
}

// TestOpenIndexHTTPBackendWantsURL pins the config error for BackendHTTP
// with a local path.
func TestOpenIndexHTTPBackendWantsURL(t *testing.T) {
	if _, err := OpenIndex("/tmp/not-a-url.rcjx", IndexConfig{Backend: BackendHTTP}); err == nil {
		t.Fatal("BackendHTTP with a local path accepted")
	}
}

// goldenV1Points regenerates the deterministic pointset the committed
// testdata/golden_v1.rcjx fixture was built from (seed 7, n=250). The
// fixture's tree shape is frozen at generation time; the test compares join
// *results*, which depend only on the points, so it stays valid even if the
// build algorithm changes.
func goldenV1Points() []Point {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 250)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(i)}
	}
	return pts
}

// TestGoldenV1Fixture is the backward-compat gate: a committed format-v1
// index (no page checksum table) must keep opening on every backend and
// join identically to a fresh build of the same points.
func TestGoldenV1Fixture(t *testing.T) {
	const golden = "testdata/golden_v1.rcjx"
	if !IsIndexFile(golden) {
		t.Fatal("IsIndexFile(golden v1) = false")
	}
	fresh := mustIndex(t, goldenV1Points(), IndexConfig{})
	wantPairs, _, err := testEng.RunCollect(bg, fresh, fresh, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			ix := openOn(t, golden, be)
			got, _, err := testEng.RunCollect(bg, ix, ix, Query{SortByDiameter: true})
			if err != nil {
				t.Fatal(err)
			}
			equalPairs(t, "golden v1 "+be.String(), got, wantPairs)
			// Save upgrades it: the v3 copy holds the same pages.
			resaved := filepath.Join(t.TempDir(), "v1-as-v3.rcjx")
			if err := ix.Save(resaved); err != nil {
				t.Fatal(err)
			}
			re := openOn(t, resaved, BackendFile)
			got, _, err = testEng.RunCollect(bg, re, re, Query{SortByDiameter: true})
			if err != nil {
				t.Fatal(err)
			}
			equalPairs(t, "golden v1 "+be.String()+" re-saved", got, wantPairs)
		})
	}
}

// TestSaveRoundTripByteIdentical checks a saved index round-trips
// byte-identically through save → open → save on every backend, and
// that the join over the reopened copy matches the original.
func TestSaveRoundTripByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(rng, 300)
	ix := mustIndex(t, pts, IndexConfig{})
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.rcjx")
	if err := ix.Save(orig); err != nil {
		t.Fatal(err)
	}
	origBytes, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, _, err := testEng.RunCollect(bg, ix, ix, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range allBackends {
		t.Run(be.String(), func(t *testing.T) {
			re := openOn(t, orig, be)
			checkResaves(t, be.String(), re.Save, origBytes)
			got, _, err := testEng.RunCollect(bg, re, re, Query{SortByDiameter: true})
			if err != nil {
				t.Fatal(err)
			}
			equalPairs(t, be.String(), got, wantPairs)
		})
	}
}
