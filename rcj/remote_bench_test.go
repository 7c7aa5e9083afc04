package rcj

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// BenchmarkRemoteJoin measures a cold self-join over an index served by a
// local HTTP server with an injected per-request latency. Each iteration
// opens a fresh engine (cold pool), so every page is one range fetch, hidden
// behind the readahead where it can be.
func BenchmarkRemoteJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 3000)
	dir := b.TempDir()
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "ix.rcjx")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	ix.Close()

	for _, latency := range []time.Duration{0, time.Millisecond} {
		fs := http.FileServer(http.Dir(dir))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if latency > 0 {
				time.Sleep(latency)
			}
			fs.ServeHTTP(w, r)
		}))
		b.Run("latency="+latency.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := NewEngine(EngineConfig{BufferPages: 4096})
				re, err := eng.OpenIndex(srv.URL+"/ix.rcjx", IndexConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.RunCollect(context.Background(), re, re, Query{}); err != nil {
					b.Fatal(err)
				}
				re.Close()
			}
		})
		srv.Close()
	}
}

// BenchmarkSharedRemoteJoin measures the fan-in value of shared-work
// serving: 8 clients issue the identical cold self-join against an index
// behind a 1ms-RTT origin. "unshared" gives each client its own engine,
// pool, and pager — how 8 separate processes behave: every page fetched 8
// times, the traversal computed 8 times. "shared" serves all 8 the way
// rcjd's scheduler serves queued identical queries: one engine (so the
// buffer pool and single-flight pager fetch each page once) running one
// batched traversal whose output is demuxed to all 8 consumers. The honest
// numbers are fetches/op (~8x -> ~1x per page) and the aggregate wall-clock
// for all 8 clients.
func BenchmarkSharedRemoteJoin(b *testing.B) {
	const clients = 8
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 3000)
	dir := b.TempDir()
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "ix.rcjx")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	ix.Close()

	fs := http.FileServer(http.Dir(dir))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		fs.ServeHTTP(w, r)
	}))
	defer srv.Close()

	// runClients drains the identical self-join on all 8 clients at once;
	// client c uses engine/index c modulo the slice length, so one-element
	// slices mean fully shared and 8-element slices mean fully private.
	runClients := func(b *testing.B, engines []*Engine, ixs []*Index) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(eng *Engine, re *Index) {
				defer wg.Done()
				for _, err := range eng.Run(context.Background(), re, re, Query{}) {
					if err != nil {
						b.Error(err)
						return
					}
				}
			}(engines[c%len(engines)], ixs[c%len(ixs)])
		}
		wg.Wait()
	}

	b.Run("unshared", func(b *testing.B) {
		var fetches int64
		for i := 0; i < b.N; i++ {
			engines := make([]*Engine, clients)
			ixs := make([]*Index, clients)
			for c := range engines {
				engines[c] = NewEngine(EngineConfig{BufferPages: 4096})
				re, err := engines[c].OpenIndex(srv.URL+"/ix.rcjx", IndexConfig{})
				if err != nil {
					b.Fatal(err)
				}
				ixs[c] = re
			}
			runClients(b, engines, ixs)
			for _, re := range ixs {
				rs, _ := re.RemoteStats()
				fetches += rs.Fetches
				re.Close()
			}
		}
		b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
	})

	b.Run("shared", func(b *testing.B) {
		var fetches, shared int64
		for i := 0; i < b.N; i++ {
			eng := NewEngine(EngineConfig{BufferPages: 4096})
			re, err := eng.OpenIndex(srv.URL+"/ix.rcjx", IndexConfig{})
			if err != nil {
				b.Fatal(err)
			}
			// One traversal, 8 consumers — the scheduler's batch demux. Each
			// consumer receives every pair, as 8 identical queries would.
			chans := make([]chan []Pair, clients)
			var wg sync.WaitGroup
			for c := range chans {
				chans[c] = make(chan []Pair, 16)
				wg.Add(1)
				go func(ch chan []Pair) {
					defer wg.Done()
					for range ch {
					}
				}(chans[c])
			}
			for prs, err := range eng.RunBatches(context.Background(), re, re, Query{}) {
				if err != nil {
					b.Fatal(err)
				}
				for _, ch := range chans {
					ch <- prs
				}
			}
			for _, ch := range chans {
				close(ch)
			}
			wg.Wait()
			rs, _ := re.RemoteStats()
			fetches += rs.Fetches
			shared += rs.SharedFetches
			re.Close()
		}
		b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
		b.ReportMetric(float64(shared)/float64(b.N), "shared/op")
	})
}
