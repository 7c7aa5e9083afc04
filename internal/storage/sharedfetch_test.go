package storage

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedServer wraps the flaky index server and blocks any request whose
// Range starts at gateOff until the gate channel closes, counting how many
// requests asked for that offset. It is how the single-flight tests hold a
// leader's fetch open while waiters pile up.
type gatedServer struct {
	inner    *flakyIndexServer
	gateOff  int64
	gate     chan struct{}
	gatedReq atomic.Int64
}

func (s *gatedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if off, _, ok := parseRange(r.Header.Get("Range"), int64(len(s.inner.data))); ok && off == s.gateOff {
		s.gatedReq.Add(1)
		<-s.gate
	}
	s.inner.ServeHTTP(w, r)
}

// TestHTTPPagerSingleFlight pins the dedupe contract: N concurrent reads of
// one page issue exactly one origin request, and every waiter gets the
// verified bytes.
func TestHTTPPagerSingleFlight(t *testing.T) {
	data, sb := testIndexImage(t, 4)
	gated := &gatedServer{inner: newFlakyIndexServer(data), gate: make(chan struct{})}
	gated.gateOff = blobOffset(t, data, sb, 0)
	srv := httptest.NewServer(gated)
	defer srv.Close()

	cfg := fastCfg()
	cfg.Client = &http.Client{Timeout: 5 * time.Second} // the gate holds the leader open
	p, _, err := OpenIndexURL(srv.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	bufs := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bufs[i] = make([]byte, sb.PageSize)
			errs[i] = p.ReadPage(0, bufs[i])
		}(i)
	}
	// Waiters announce themselves via the SharedFetches counter before they
	// block, so this poll is race-free: once it reads readers-1 every
	// non-leader is (or will be) parked on the leader's flight.
	deadline := time.Now().Add(5 * time.Second)
	for p.Remote().SharedFetches < readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for waiters: shared=%d", p.Remote().SharedFetches)
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.gate)
	wg.Wait()

	want := bytes.Repeat([]byte{1}, sb.PageSize)
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(bufs[i], want) {
			t.Fatalf("reader %d got wrong bytes", i)
		}
	}
	if n := gated.gatedReq.Load(); n != 1 {
		t.Fatalf("page 0 fetched %d times, want 1", n)
	}
	rs := p.Remote()
	if rs.SharedFetches != readers-1 {
		t.Fatalf("SharedFetches = %d, want %d", rs.SharedFetches, readers-1)
	}
	if st := p.Stats(); st.Reads != readers {
		t.Fatalf("Stats.Reads = %d, want %d (every waiter is a logical read)", st.Reads, readers)
	}
	// The flight must be gone: a later read fetches fresh.
	buf := make([]byte, sb.PageSize)
	if err := p.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if n := gated.gatedReq.Load(); n != 2 {
		t.Fatalf("post-flight read fetched %d times total, want 2", n)
	}
}

// TestHTTPPagerSingleFlightError pins error propagation: when the leader's
// fetch fails permanently, every waiter sees the same typed error, and the
// next read starts a fresh flight.
func TestHTTPPagerSingleFlightError(t *testing.T) {
	data, sb := testIndexImage(t, 4)
	gated := &gatedServer{inner: newFlakyIndexServer(data), gate: make(chan struct{})}
	gated.gateOff = blobOffset(t, data, sb, 0)
	srv := httptest.NewServer(gated)
	defer srv.Close()

	cfg := fastCfg()
	cfg.Client = &http.Client{Timeout: 5 * time.Second}
	p, _, err := OpenIndexURL(srv.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	gated.inner.push(fault404) // the leader's one attempt fails permanently
	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.ReadPage(0, make([]byte, sb.PageSize))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Remote().SharedFetches < readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for waiters: shared=%d", p.Remote().SharedFetches)
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("reader %d error = %v, want ErrRemote", i, err)
		}
	}
	// The failed flight must not poison the page: the next read succeeds.
	buf := make([]byte, sb.PageSize)
	if err := p.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{1}, sb.PageSize)) {
		t.Fatal("recovered read got wrong bytes")
	}
}

// TestReadPageRangeCoalesced pins the multi-page fetch: one request for a
// run of adjacent pages, per-page CRC verification, and whole-run retry on
// a corrupted body.
func TestReadPageRangeCoalesced(t *testing.T) {
	data, sb := testIndexImage(t, 6)
	flaky := newFlakyIndexServer(data)
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	p, _, err := OpenIndexURL(srv.URL, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	opened := flaky.requests.Load()

	pages, err := p.ReadPageRange(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("got %d pages, want 3", len(pages))
	}
	for i, pg := range pages {
		if !bytes.Equal(pg, bytes.Repeat([]byte{byte(i + 2)}, sb.PageSize)) {
			t.Fatalf("page %d contents differ", i+1)
		}
	}
	if got := flaky.requests.Load() - opened; got != 1 {
		t.Fatalf("3-page run cost %d requests, want 1", got)
	}
	rs := p.Remote()
	if rs.CoalescedFetches != 1 {
		t.Fatalf("CoalescedFetches = %d, want 1", rs.CoalescedFetches)
	}
	if st := p.Stats(); st.Reads != 3 {
		t.Fatalf("Stats.Reads = %d, want 3", st.Reads)
	}

	// A corrupted body fails some page's CRC and retries the whole run.
	flaky.push(faultCorrupt)
	if _, err := p.ReadPageRange(0, 4); err != nil {
		t.Fatal(err)
	}
	rs = p.Remote()
	if rs.ChecksumFailures == 0 || rs.Retries != 1 {
		t.Fatalf("after corrupted run: %+v, want >=1 checksum failure and 1 retry", rs)
	}
	if rs.CoalescedFetches != 2 {
		t.Fatalf("CoalescedFetches = %d, want 2 (retry is not a new coalesce)", rs.CoalescedFetches)
	}

	// A single-page run is not a coalesce, and bounds are enforced.
	if _, err := p.ReadPageRange(5, 1); err != nil {
		t.Fatal(err)
	}
	if rs := p.Remote(); rs.CoalescedFetches != 2 {
		t.Fatalf("CoalescedFetches = %d after 1-page run, want 2", rs.CoalescedFetches)
	}
	if _, err := p.ReadPageRange(4, 3); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out-of-range run = %v", err)
	}
	if _, err := p.ReadPageRange(0, 0); err == nil {
		t.Fatal("zero-length run did not fail")
	}
}

// versionedServer serves an index image over ranges with validators, and can
// switch to a new version mid-session: honoring If-Range (full-body 200 on
// mismatch) or ignoring it while still rotating its validators.
type versionedServer struct {
	mu           sync.Mutex
	data         []byte
	etag         string
	lastMod      string
	honorIfRange bool
}

func (s *versionedServer) set(etag, lastMod string) {
	s.mu.Lock()
	s.etag, s.lastMod = etag, lastMod
	s.mu.Unlock()
}

func (s *versionedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	data, etag, lastMod, honor := s.data, s.etag, s.lastMod, s.honorIfRange
	s.mu.Unlock()
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	if lastMod != "" {
		w.Header().Set("Last-Modified", lastMod)
	}
	rangeHdr := r.Header.Get("Range")
	ir := r.Header.Get("If-Range")
	stale := honor && ir != "" && ir != etag && ir != lastMod
	if rangeHdr == "" || stale {
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		return
	}
	off, n, ok := parseRange(rangeHdr, int64(len(data)))
	if !ok {
		http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, len(data)))
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(http.StatusPartialContent)
	w.Write(data[off : off+n])
}

// TestHTTPPagerOriginChanged pins the validator contract across three origin
// behaviors: If-Range honored, If-Range ignored but ETag rotated, and a
// Last-Modified-only origin.
func TestHTTPPagerOriginChanged(t *testing.T) {
	data, sb := testIndexImage(t, 4)
	for _, tc := range []struct {
		name  string
		setup func(*versionedServer)
		flip  func(*versionedServer)
	}{
		{
			name:  "if-range honored",
			setup: func(s *versionedServer) { s.etag = `"v1"`; s.honorIfRange = true },
			flip:  func(s *versionedServer) { s.set(`"v2"`, "") },
		},
		{
			name:  "if-range ignored, etag rotated",
			setup: func(s *versionedServer) { s.etag = `"v1"` },
			flip:  func(s *versionedServer) { s.set(`"v2"`, "") },
		},
		{
			name:  "last-modified only",
			setup: func(s *versionedServer) { s.lastMod = "Mon, 02 Jan 2006 15:04:05 GMT" },
			flip:  func(s *versionedServer) { s.set("", "Tue, 03 Jan 2006 15:04:05 GMT") },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs := &versionedServer{data: data}
			tc.setup(vs)
			srv := httptest.NewServer(vs)
			defer srv.Close()

			p, _, err := OpenIndexURL(srv.URL, fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			buf := make([]byte, sb.PageSize)
			if err := p.ReadPage(0, buf); err != nil {
				t.Fatalf("read before flip: %v", err)
			}
			before := p.Remote()

			tc.flip(vs)
			err = p.ReadPage(1, buf)
			if !errors.Is(err, ErrOriginChanged) {
				t.Fatalf("read after flip = %v, want ErrOriginChanged", err)
			}
			if !errors.Is(err, ErrRemote) {
				t.Fatalf("ErrOriginChanged not wrapped in ErrRemote: %v", err)
			}
			// Permanent: the retry budget must not be burned on it.
			if rs := p.Remote().Sub(before); rs.Retries != 0 {
				t.Fatalf("origin change burned %d retries", rs.Retries)
			}
			if _, err := p.ReadPageRange(0, 2); !errors.Is(err, ErrOriginChanged) {
				t.Fatalf("coalesced read after flip = %v, want ErrOriginChanged", err)
			}
		})
	}
}

// TestHTTPPagerStableValidators pins the happy path: an origin that keeps
// its validators stable serves every page under If-Range without incident.
func TestHTTPPagerStableValidators(t *testing.T) {
	data, sb := testIndexImage(t, 4)
	vs := &versionedServer{data: data, etag: `"v1"`, honorIfRange: true}
	srv := httptest.NewServer(vs)
	defer srv.Close()

	p, _, err := OpenIndexURL(srv.URL, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, sb.PageSize)
	for i := 0; i < sb.NumPages; i++ {
		if err := p.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i + 1)}, sb.PageSize)) {
			t.Fatalf("page %d contents differ", i)
		}
	}
}
