package router

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/rcj"
)

// The /join response byte gate. Every path that writes a /join response —
// rcjd live, rcjd replaying its result cache, the router's streaming merge,
// the router's top-k gather — in both formats, ending cleanly, failing
// before the first row and failing after it, must answer with the status,
// Content-Type and body bytes recorded in testdata/join_bytes.golden. The
// file was recorded at the commit before the four response writers became
// one (server.JoinWriter); `go test ./internal/router -run
// TestJoinResponseBytes -update` rewrites it from the current build.
//
// Failures are injected by flipping a byte in saved index pages: the file
// backend verifies each page against the format's checksum table when a
// traversal first reads it, so a sequential join fails at a reproducible
// point of its stream. The router cases run over a one-shard manifest, so
// no cross-shard interleaving blurs the bytes.

var updateGolden = flag.Bool("update", false, "rewrite testdata/join_bytes.golden from this build's responses")

const (
	gatePageSize = 256 // 10-entry leaves: 24 points already make a two-level tree
	gateGolden   = "testdata/join_bytes.golden"
)

// corruption selects the Q-side (outer) pages a gate case damages.
type corruption int

const (
	intact    corruption = iota
	allLeaves            // every page but the root: the first leaf read fails, before any row
	lateLeaf             // a leaf the join reaches late: rows stream, then the failure
)

// gateLateLeaf is a Q page the sequential join over gatePoints first reads
// after it has streamed rows (12 of 26 at recording time).
const gateLateLeaf = 2

func gatePoints() (p, q []rcj.Point) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		p = append(p, rcj.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: int64(i)})
	}
	for i := 0; i < 24; i++ {
		q = append(q, rcj.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: int64(1000 + i)})
	}
	return p, q
}

// corruptIndex flips byte 9 of the chosen pages of the saved index: it
// re-saves the damaged page images, then copies the original checksum table
// back over the new one, so every damaged page decodes to its flipped bytes
// and fails verification against its original CRC — the same decoded bytes,
// and the same failure, whatever the layout the writer packs them in.
func corruptIndex(t *testing.T, path string, c corruption) {
	t.Helper()
	if c == intact {
		return
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pager, sb, err := storage.OpenIndexFile(path, storage.BackendMem) // a writable copy of the pages
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	page := make([]byte, sb.PageSize)
	for id := storage.PageID(0); int(id) < sb.NumPages; id++ {
		if id == sb.Root || (c == lateLeaf && id != gateLateLeaf) {
			continue
		}
		if err := pager.ReadPage(id, page); err != nil {
			t.Fatal(err)
		}
		page[9] ^= 0xFF
		if err := pager.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := storage.WriteIndexFile(path, sb, pager); err != nil {
		t.Fatal(err)
	}
	damaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The table is the last PageTableSize bytes of every checksummed layout.
	n := storage.PageTableSize(sb.NumPages)
	copy(damaged[len(damaged)-n:], orig[len(orig)-n:])
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
}

// gateRcjd serves the saved p and q through a fresh engine (cold pool, one
// slot), so the buffer counters in the summary repeat exactly.
func gateRcjd(t *testing.T, pPath, qPath string, cacheEntries int) *httptest.Server {
	t.Helper()
	eng := rcj.NewEngine(rcj.EngineConfig{BufferShards: 1})
	srv := server.New(sched.New(eng, sched.Config{MaxConcurrent: 1}),
		server.Config{Backend: rcj.BackendFile, ResultCacheEntries: cacheEntries})
	for name, path := range map[string]string{"p": pPath, "q": qPath} {
		if err := srv.LoadIndex(name, path); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms":\d+`)

func TestJoinResponseBytes(t *testing.T) {
	cases := []struct {
		name   string
		router bool
		damage corruption
		fields string // request fields besides p, q and format
		replay bool   // ask twice, gate the second answer (the cached replay)
	}{
		{name: "rcjd-live/clean"},
		{name: "rcjd-live/fail-before-first-row", damage: allLeaves},
		{name: "rcjd-live/fail-after-first-row", damage: lateLeaf},
		{name: "rcjd-cached/clean", fields: `,"top_k":5`, replay: true},
		{name: "router-stream/clean", router: true},
		{name: "router-stream/fail-before-first-row", router: true, damage: allLeaves},
		{name: "router-stream/fail-after-first-row", router: true, damage: lateLeaf},
		{name: "router-topk/clean", router: true, fields: `,"top_k":5`},
		{name: "router-topk/fail-before-first-row", router: true, damage: lateLeaf, fields: `,"top_k":5`},
	}
	p, q := gatePoints()
	// saveGateIndex writes pts as a saved index of gatePageSize pages.
	saveGateIndex := func(pts []rcj.Point, path string) {
		ix, err := rcj.BuildIndex(pts, rcj.IndexConfig{PageSize: gatePageSize})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	var got strings.Builder
	for _, tc := range cases {
		for _, format := range []string{"ndjson", "csv"} {
			dir := t.TempDir()
			var base, workerURL string
			if tc.router {
				manPath := filepath.Join(dir, "gate.rcjm")
				man, err := shard.Build(manPath, p, q, shard.BuildConfig{Shards: 1, MaxDiameter: 40, Name: "gate"})
				if err != nil {
					t.Fatal(err)
				}
				// The one shard holds every point in input order: re-save its
				// two sides at the gate's page size (shards build at the default).
				saveGateIndex(p, filepath.Join(dir, man.Shards[0].P))
				saveGateIndex(q, filepath.Join(dir, man.Shards[0].Q))
				corruptIndex(t, filepath.Join(dir, man.Shards[0].Q), tc.damage)
				worker := newWorker(t, manPath, nil)
				rt, err := New(Config{Manifest: man, Workers: []Worker{{URL: worker.URL}}, Retries: 0})
				if err != nil {
					t.Fatal(err)
				}
				front := httptest.NewServer(rt.Handler())
				t.Cleanup(front.Close)
				base, workerURL = front.URL, worker.URL
			} else {
				paths := map[string]string{}
				for name, pts := range map[string][]rcj.Point{"p": p, "q": q} {
					paths[name] = filepath.Join(dir, name+".rcjx")
					saveGateIndex(pts, paths[name])
				}
				corruptIndex(t, paths["q"], tc.damage)
				cache := 0
				if tc.replay {
					cache = 8
				}
				base = gateRcjd(t, paths["p"], paths["q"], cache).URL
			}

			body := fmt.Sprintf(`{"p":"p","q":"q","alg":"obj","format":%q%s}`, format, tc.fields)
			if tc.replay {
				postJoin(t, base, body)
			}
			resp, err := http.Post(base+"/join", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			// The only bytes that legitimately differ between runs: wall
			// clock, the worker's port.
			text := string(data)
			text = elapsedRE.ReplaceAllString(text, `"elapsed_ms":0`)
			if workerURL != "" {
				text = strings.ReplaceAll(text, workerURL, "http://worker")
			}
			fmt.Fprintf(&got, "== %s/%s\n%d %s\n%s", tc.name, format, resp.StatusCode, resp.Header.Get("Content-Type"), text)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(gateGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gateGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gateGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotSecs, wantSecs := strings.Split(got.String(), "== "), strings.Split(string(want), "== ")
	for i := 0; i < len(gotSecs) || i < len(wantSecs); i++ {
		var g, w string
		if i < len(gotSecs) {
			g = gotSecs[i]
		}
		if i < len(wantSecs) {
			w = wantSecs[i]
		}
		if g != w {
			t.Errorf("response differs from the recorded one:\n--- got\n%s\n--- want\n%s", g, w)
		}
	}
}
