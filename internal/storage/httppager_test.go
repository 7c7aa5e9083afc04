package storage

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fault is one scripted misbehavior of the flaky index server, consumed one
// per request in FIFO order; an empty script serves correctly.
type fault int

const (
	faultNone    fault = iota
	fault503           // reply 503 Service Unavailable
	faultHang          // stall past the client timeout before replying
	faultShort         // declare the full range but send only half the bytes
	faultCorrupt       // flip a bit in the served range (corrupting proxy)
	fault404           // reply 404 Not Found (permanent: not retried)
)

// flakyIndexServer serves an index file image over HTTP ranges with
// scripted faults: the test harness the remote pager is hardened against.
type flakyIndexServer struct {
	mu     sync.Mutex
	data   []byte
	script []fault
	// corruptAt, when >= 0, persistently corrupts any range starting at
	// that byte offset (a proxy that always mangles one page).
	corruptAt int64
	requests  atomic.Int64
	hang      time.Duration
}

func newFlakyIndexServer(data []byte) *flakyIndexServer {
	return &flakyIndexServer{data: data, corruptAt: -1, hang: 300 * time.Millisecond}
}

// push appends faults to the script.
func (s *flakyIndexServer) push(fs ...fault) {
	s.mu.Lock()
	s.script = append(s.script, fs...)
	s.mu.Unlock()
}

func (s *flakyIndexServer) pop() fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.script) == 0 {
		return faultNone
	}
	f := s.script[0]
	s.script = s.script[1:]
	return f
}

func (s *flakyIndexServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	switch s.pop() {
	case fault503:
		http.Error(w, "temporarily unavailable", http.StatusServiceUnavailable)
		return
	case fault404:
		http.Error(w, "gone", http.StatusNotFound)
		return
	case faultHang:
		time.Sleep(s.hang)
	case faultShort:
		off, n, ok := parseRange(r.Header.Get("Range"), int64(len(s.data)))
		if !ok {
			http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, len(s.data)))
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(s.data[off : off+n/2]) // half the promised bytes, then EOF
		return
	case faultCorrupt:
		s.serveRange(w, r, true)
		return
	}
	s.serveRange(w, r, false)
}

func (s *flakyIndexServer) serveRange(w http.ResponseWriter, r *http.Request, corrupt bool) {
	rangeHdr := r.Header.Get("Range")
	if rangeHdr == "" {
		w.Header().Set("Content-Length", strconv.Itoa(len(s.data)))
		w.WriteHeader(http.StatusOK)
		w.Write(s.data)
		return
	}
	off, n, ok := parseRange(rangeHdr, int64(len(s.data)))
	if !ok {
		http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	body := append([]byte(nil), s.data[off:off+n]...)
	s.mu.Lock()
	if s.corruptAt >= 0 && off == s.corruptAt {
		corrupt = true
	}
	s.mu.Unlock()
	if corrupt {
		// Flip a mid-body bit: for the superblock that lands in the
		// CRC-covered region (ErrBadChecksum, retried), matching how the
		// pager classifies transit corruption; a flipped magic byte would
		// instead read as "not an index", which is a permanent failure.
		body[len(body)/2] ^= 0xFF
	}
	w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, len(s.data)))
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(http.StatusPartialContent)
	w.Write(body)
}

// parseRange parses "bytes=a-b" into offset and length, clamped to size.
func parseRange(h string, size int64) (off, n int64, ok bool) {
	h, found := strings.CutPrefix(h, "bytes=")
	if !found {
		return 0, 0, false
	}
	a, b, found := strings.Cut(h, "-")
	if !found {
		return 0, 0, false
	}
	start, err1 := strconv.ParseInt(a, 10, 64)
	end, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || start < 0 || end < start || start >= size {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end - start + 1, true
}

// testIndexImage writes a small index file and returns its bytes and
// superblock.
func testIndexImage(t *testing.T, numPages int) ([]byte, Superblock) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.rcjx")
	sb := writeTestIndexFile(t, path, numPages)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, sb
}

// blobOffset returns where page id's stored bytes start in the packed index
// image data: the offset the range request fetching that page begins at.
func blobOffset(t *testing.T, data []byte, sb Superblock, id PageID) int64 {
	t.Helper()
	dir, err := DecodePageDir(data[sb.PageSize:], sb)
	if err != nil {
		t.Fatal(err)
	}
	return int64(dir[id])
}

// fastCfg keeps fault-injection runs quick: millisecond backoff, short
// client timeout (so faultHang trips it), 3 retries.
func fastCfg() HTTPPagerConfig {
	return HTTPPagerConfig{
		Client:       &http.Client{Timeout: 150 * time.Millisecond},
		MaxRetries:   3,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   4 * time.Millisecond,
	}
}

// TestHTTPPagerHappyPath adds the remote-only observations to the open table
// (TestIndexFileBackends/http): pages of a saved index are verified, and a
// healthy origin costs fetches but no retries.
func TestHTTPPagerHappyPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.rcjx")
	want := writeTestIndexFile(t, path, 6)
	p := checkOpens(t, path, want, testPager(t, 6), BackendHTTP).(*HTTPPager)
	if p.table == nil {
		t.Fatal("remote pager not verifying pages")
	}
	if rs := p.Remote(); rs.Retries != 0 || rs.Fetches == 0 || rs.BytesFetched == 0 {
		t.Fatalf("remote stats %+v", rs)
	}
}

// TestHTTPPagerRetriesTransient scripts every transient fault class in
// front of each fetch and checks the pager recovers, counting each retry.
func TestHTTPPagerRetriesTransient(t *testing.T) {
	data, want := testIndexImage(t, 4)
	for _, tc := range []struct {
		name  string
		fault fault
	}{{"503", fault503}, {"timeout", faultHang}, {"short read", faultShort}, {"corrupting proxy", faultCorrupt}} {
		t.Run(tc.name, func(t *testing.T) {
			flaky := newFlakyIndexServer(data)
			srv := httptest.NewServer(flaky)
			defer srv.Close()
			flaky.push(tc.fault) // first fetch (the superblock) fails once
			p, _, err := OpenIndexURL(srv.URL, fastCfg())
			if err != nil {
				t.Fatalf("open with scripted %s: %v", tc.name, err)
			}
			defer p.Close()
			flaky.push(tc.fault) // next page fetch fails once too
			buf := make([]byte, want.PageSize)
			if err := p.ReadPage(2, buf); err != nil {
				t.Fatalf("read with scripted %s: %v", tc.name, err)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{3}, want.PageSize)) {
				t.Fatal("recovered page corrupted")
			}
			rs := p.Remote()
			if rs.Retries < 2 {
				t.Fatalf("retries = %d, want >= 2 (%+v)", rs.Retries, rs)
			}
			if tc.fault == faultCorrupt && rs.ChecksumFailures == 0 {
				t.Fatalf("corrupting proxy not detected: %+v", rs)
			}
		})
	}
}

// TestHTTPPagerBoundedRetries pins the retry bound: a page the proxy always
// corrupts fails with ErrBadChecksum naming the page after exactly
// 1+MaxRetries fetch attempts — no partial page, no unbounded loop.
func TestHTTPPagerBoundedRetries(t *testing.T) {
	data, want := testIndexImage(t, 5)
	flaky := newFlakyIndexServer(data)
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	cfg := fastCfg()
	p, _, err := OpenIndexURL(srv.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const victim = 3
	flaky.mu.Lock()
	flaky.corruptAt = blobOffset(t, data, want, victim)
	flaky.mu.Unlock()

	before := flaky.requests.Load()
	buf := make([]byte, want.PageSize)
	err = p.ReadPage(victim, buf)
	if !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("ReadPage(corrupted) = %v, want ErrBadChecksum", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("page %d", victim)) {
		t.Fatalf("error does not name the offending page: %v", err)
	}
	attempts := flaky.requests.Load() - before
	if wantAttempts := int64(1 + cfg.MaxRetries); attempts != wantAttempts {
		t.Fatalf("%d fetch attempts, want exactly %d", attempts, wantAttempts)
	}
	// The neighbors are untouched.
	if err := p.ReadPage(victim+1, buf); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPPagerAlways503 checks a hard-down origin fails with the typed
// remote error after the bounded retries.
func TestHTTPPagerAlways503(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	_, _, err := OpenIndexURL(srv.URL, fastCfg())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("OpenIndexURL(503) = %v, want ErrRemote", err)
	}
}

// TestHTTPPagerPermanentFailures checks non-retryable failures fail fast:
// one fetch, no backoff loop.
func TestHTTPPagerPermanentFailures(t *testing.T) {
	data, want := testIndexImage(t, 3)
	flaky := newFlakyIndexServer(data)
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	t.Run("404", func(t *testing.T) {
		var hits atomic.Int64
		notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			http.NotFound(w, r)
		}))
		defer notFound.Close()
		if _, _, err := OpenIndexURL(notFound.URL+"/nope.rcjx", fastCfg()); !errors.Is(err, ErrRemote) {
			t.Fatalf("OpenIndexURL(404) = %v, want ErrRemote", err)
		}
		if hits.Load() != 1 {
			t.Fatalf("404 fetched %d times, want 1 (no retries on permanent failures)", hits.Load())
		}
	})
	t.Run("not an index", func(t *testing.T) {
		// A range-capable origin serving something that is not an index
		// (an HTML page, a CSV): deterministic decode failure, so the open
		// must fail fast with the typed error, not burn the retry budget.
		html := newFlakyIndexServer([]byte(strings.Repeat("<html>not an index</html>", 20)))
		srv3 := httptest.NewServer(html)
		defer srv3.Close()
		if _, _, err := OpenIndexURL(srv3.URL, fastCfg()); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("OpenIndexURL(html) = %v, want ErrBadMagic", err)
		}
		if got := html.requests.Load(); got != 1 {
			t.Fatalf("non-index fetched %d times, want 1 (no retries on deterministic decode failures)", got)
		}
	})
	t.Run("no range support", func(t *testing.T) {
		plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK) // ignores Range
			w.Write(data)
		}))
		defer plain.Close()
		// The superblock (offset 0) still reads from a 200-prefix, so the
		// open gets far enough to need the page table at a nonzero offset —
		// where the missing range support surfaces as a permanent error.
		if _, _, err := OpenIndexURL(plain.URL, fastCfg()); !errors.Is(err, ErrRemote) {
			t.Fatalf("OpenIndexURL(no ranges) = %v, want ErrRemote", err)
		}
	})
	// A hostile or misconfigured origin: 72 bytes, a CRC-valid superblock
	// claiming 2^26 packed pages, and no total length to check the claim
	// against. The open must refuse before sizing anything from the count.
	for name, answer := range map[string]func(w http.ResponseWriter, sb []byte){
		"no length, 206": func(w http.ResponseWriter, sb []byte) {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/*", len(sb)-1))
			w.WriteHeader(http.StatusPartialContent)
			w.Write(sb)
		},
		"no length, chunked 200": func(w http.ResponseWriter, sb []byte) {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			w.Write(sb)
		},
	} {
		t.Run(name, func(t *testing.T) {
			sb := make([]byte, SuperblockSize)
			if err := EncodeSuperblock(Superblock{Version: FormatVersion3, Flags: FlagPackedPages,
				PageSize: DefaultPageSize, NumPages: 1 << 26, Root: 0, Height: 1, Count: 1}, sb); err != nil {
				t.Fatal(err)
			}
			var hits atomic.Int64
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				answer(w, sb)
			}))
			defer origin.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := OpenIndexURL(origin.URL, fastCfg())
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrRemote) {
				t.Fatalf("OpenIndexURL = %v, want ErrRemote", err)
			}
			if hits.Load() != 1 {
				t.Fatalf("%d requests, want 1", hits.Load())
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("open allocated %d bytes against an unverified page count", grew)
			}
		})
	}
	t.Run("truncated origin", func(t *testing.T) {
		cut := newFlakyIndexServer(data[:int64(want.PageSize)*2])
		srv2 := httptest.NewServer(cut)
		defer srv2.Close()
		if _, _, err := OpenIndexURL(srv2.URL, fastCfg()); !errors.Is(err, ErrTruncated) {
			t.Fatalf("OpenIndexURL(truncated) = %v, want ErrTruncated", err)
		}
	})
}

// TestHTTPPagerCloseAbortsHungFetch pins the drain guarantee: Close must
// cancel an in-flight fetch against a hung origin and return promptly,
// instead of letting the read wait out its client timeout and retry budget.
func TestHTTPPagerCloseAbortsHungFetch(t *testing.T) {
	data, want := testIndexImage(t, 3)
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	healthy := newFlakyIndexServer(data)
	var hung atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hung.Load() {
			entered <- struct{}{}
			<-release // hang until the test ends
			return
		}
		healthy.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(release)

	cfg := fastCfg()
	cfg.Client = &http.Client{} // no client timeout: only cancellation can end the fetch
	p, _, err := OpenIndexURL(srv.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hung.Store(true)
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, want.PageSize)
		readErr <- p.ReadPage(0, buf)
	}()
	<-entered // the fetch is in flight and hanging
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return while a fetch was hung")
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("hung read returned data after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight read did not abort after Close")
	}
}

// TestHTTPPagerV1Unverified: a v1 file (no page table) serves over HTTP
// with no checksum table — reads work (TestV1StillOpens/http), but pages
// cannot be checked.
func TestHTTPPagerV1Unverified(t *testing.T) {
	p, got, err := openOn(t, v1Fixture, BackendHTTP)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got.Version != FormatVersion1 || p.(*HTTPPager).table != nil {
		t.Fatalf("v1 remote: version %d, verified %v", got.Version, p.(*HTTPPager).table != nil)
	}
}

// TestHTTPPagerConcurrent hammers one remote pager from many goroutines
// while the server injects occasional faults. Run with -race.
func TestHTTPPagerConcurrent(t *testing.T) {
	data, want := testIndexImage(t, 8)
	flaky := newFlakyIndexServer(data)
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	p, _, err := OpenIndexURL(srv.URL, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	flaky.push(fault503, faultCorrupt, faultShort, fault503, faultCorrupt)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, want.PageSize)
			for i := 0; i < 40; i++ {
				id := PageID((g*5 + i) % want.NumPages)
				if err := p.ReadPage(id, buf); err != nil {
					t.Errorf("read %d: %v", id, err)
					return
				}
				if buf[0] != byte(id+1) {
					t.Errorf("page %d: got byte %d", id, buf[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
