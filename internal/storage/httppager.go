package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrRemote is the typed failure of the HTTP pager: the server answered, but
// not with the bytes asked for (unexpected status, missing range support,
// short body). Transport-level errors and retryable statuses are retried
// with capped backoff first; ErrRemote surfaces only once retries are
// exhausted or the failure is permanent.
var ErrRemote = errors.New("storage: remote index fetch failed")

// ErrOriginChanged means the origin served a different object than the one
// the pager validated at open: the ETag (or Last-Modified, when the origin
// sends no ETag) of a later response no longer matches the one captured on
// the first. Pages fetched across such a boundary would mix two index
// builds, so the fetch fails permanently (wrapped in ErrRemote, never
// retried) and the index must be reopened.
var ErrOriginChanged = errors.New("storage: remote index changed at origin")

// IsIndexURL reports whether src names a remote index (an http:// or
// https:// URL) rather than a local file path.
func IsIndexURL(src string) bool {
	return strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://")
}

// HTTPPagerConfig tunes the remote pager. The zero value selects sane
// serving defaults; tests shrink the backoff to keep fault-injection runs
// fast.
type HTTPPagerConfig struct {
	// Client issues the range requests; nil builds a private client with a
	// 30s per-request timeout.
	Client *http.Client
	// MaxRetries bounds how many times one fetch is re-attempted after a
	// transient failure (timeout, 5xx, short read, per-page checksum
	// mismatch). Total attempts = 1 + MaxRetries. Zero means the default
	// (3); negative disables retries.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// attempt. Zero means the default (50ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the doubling. Zero means the default (1s).
	MaxBackoff time.Duration
}

func (c HTTPPagerConfig) withDefaults() HTTPPagerConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	return c
}

// RemoteStats are cumulative transfer counters of an HTTPPager, the
// substrate-level story behind the buffer pool's fault counts: how many
// round trips the faults cost, how many had to be retried, and how many
// bytes crossed the wire.
type RemoteStats struct {
	// Fetches counts HTTP requests issued (including retries).
	Fetches int64
	// Retries counts re-attempts after a transient failure.
	Retries int64
	// BytesFetched counts body bytes read from successful responses.
	BytesFetched int64
	// ChecksumFailures counts fetched pages that failed per-page CRC
	// verification (each one is retried; a persistent mismatch surfaces as
	// ErrBadChecksum).
	ChecksumFailures int64
	// SharedFetches counts page reads that piggybacked on a fetch another
	// reader already had in flight for the same page instead of issuing
	// their own request (the single-flight dedupe).
	SharedFetches int64
	// CoalescedFetches counts multi-page range requests that merged reads of
	// adjacent pages (prefetch coalescing) into one round trip.
	CoalescedFetches int64
}

// Add accumulates o into s, field by field — the one place the counter
// arithmetic lives, so a future counter cannot be silently dropped from an
// aggregation site.
func (s *RemoteStats) Add(o RemoteStats) {
	s.Fetches += o.Fetches
	s.Retries += o.Retries
	s.BytesFetched += o.BytesFetched
	s.ChecksumFailures += o.ChecksumFailures
	s.SharedFetches += o.SharedFetches
	s.CoalescedFetches += o.CoalescedFetches
}

// Sub returns s - o, field by field (the delta of two snapshots).
func (s RemoteStats) Sub(o RemoteStats) RemoteStats {
	return RemoteStats{
		Fetches:          s.Fetches - o.Fetches,
		Retries:          s.Retries - o.Retries,
		BytesFetched:     s.BytesFetched - o.BytesFetched,
		ChecksumFailures: s.ChecksumFailures - o.ChecksumFailures,
		SharedFetches:    s.SharedFetches - o.SharedFetches,
		CoalescedFetches: s.CoalescedFetches - o.CoalescedFetches,
	}
}

// HTTPPager is the HTTP-range substrate: a read-only Pager over an index
// file served by any HTTP server that supports range requests (GET with a
// Range header). Page i is one ranged fetch of the bytes the file's layout
// stores it in — the page image itself, or for a packed (v3) index its
// compressed blob — decoded locally. Every fetched page of a format-v2/v3
// index is verified against the per-page checksum table before it is
// returned, so a corrupting transport cannot hand the tree a bad node;
// transient failures (timeouts, 5xx, short reads, checksum mismatches,
// undecodable blobs) are retried with capped exponential backoff. Construct
// with OpenIndexURL. Safe for concurrent use.
type HTTPPager struct {
	layout
	readOnly
	url      string
	cfg      HTTPPagerConfig
	ownedCli bool // Close releases idle connections only for a private client

	// ctx cancels every in-flight and future fetch when the pager closes,
	// so Close (and the prefetcher drain above it) never waits out a retry
	// budget against a hung origin.
	ctx    context.Context
	cancel context.CancelFunc

	// inflight is the single-flight table: one entry per page currently
	// being fetched. A reader that finds its page here waits for the
	// leader's bytes instead of issuing a duplicate request.
	sfMu     sync.Mutex
	inflight map[PageID]*pageFlight

	// The origin validators captured from the first response. Later fetches
	// send If-Range with the strongest one and cross-check response headers,
	// turning a mid-session origin mutation into ErrOriginChanged instead of
	// silently mixed pages.
	valMu   sync.Mutex
	etag    string
	lastMod string

	reads        atomic.Int64
	fetches      atomic.Int64
	retries      atomic.Int64
	bytesFetched atomic.Int64
	checksumFail atomic.Int64
	sharedFetch  atomic.Int64
	coalesced    atomic.Int64
	closed       atomic.Bool
}

// pageFlight is one in-flight page fetch: the leader fills body/err and
// closes done; waiters block on done and share the outcome.
type pageFlight struct {
	done chan struct{}
	body []byte
	err  error
}

// OpenIndexURL validates the index file served at url and returns a
// read-only remote Pager over its pages plus the decoded superblock. The
// superblock, (format v2+) the page checksum table, and (packed v3) the page
// directory are fetched and verified up front; pages fetch lazily, one range
// request per buffer-pool miss — for packed indexes that request covers the
// compressed blob, typically under half the page size. Validation failures
// carry the same typed errors as OpenIndexFile — the same readLayout reads
// both — and an origin that reports no total length for the object is
// refused (ErrRemote): without it the superblock's page count cannot be
// checked before the tables it sizes are fetched.
//
// Format v1 files open too, but carry no page table, so individual page
// fetches cannot be verified — prefer re-saving (the writer emits checksummed
// v3) before serving over a network.
func OpenIndexURL(url string, cfg HTTPPagerConfig) (*HTTPPager, Superblock, error) {
	ownedCli := cfg.Client == nil
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	p := &HTTPPager{url: url, cfg: cfg, ownedCli: ownedCli, ctx: ctx, cancel: cancel,
		inflight: make(map[PageID]*pageFlight)}
	// The superblock is self-checksummed, so decoding doubles as transit
	// verification: a corrupted fetch retries like any transient failure.
	var sb Superblock
	_, total, err := p.fetchVerified(0, SuperblockSize, func(b []byte) (err error) {
		sb, err = DecodeSuperblock(b)
		return err
	})
	if err != nil {
		return nil, Superblock{}, fmt.Errorf("storage: open index url %s: %w", url, err)
	}
	p.layout, err = readLayout(func(off int64, n int, check func([]byte) error) error {
		_, _, err := p.fetchVerified(off, n, check)
		return err
	}, total, sb)
	if err != nil {
		return nil, Superblock{}, fmt.Errorf("storage: open index url %s: %w", url, err)
	}
	return p, sb, nil
}

// URL returns the index URL the pager serves from.
func (p *HTTPPager) URL() string { return p.url }

// ReadPage fetches page id with one HTTP range request (plus bounded
// retries), verifies it against the checksum table when present, and copies
// it into buf. Concurrent reads of the same page — demand faults racing each
// other or the prefetcher — collapse into one request: the first reader
// fetches, the rest wait for its bytes (counted as SharedFetches).
func (p *HTTPPager) ReadPage(id PageID, buf []byte) error {
	if p.closed.Load() {
		return fmt.Errorf("storage: read page %d: pager is closed", id)
	}
	if err := p.checkRead(id, buf); err != nil {
		return err
	}
	p.sfMu.Lock()
	if f, ok := p.inflight[id]; ok {
		p.sfMu.Unlock()
		p.sharedFetch.Add(1)
		<-f.done
		if f.err != nil {
			return fmt.Errorf("storage: read page %d from %s: %w", id, p.url, f.err)
		}
		copy(buf, f.body)
		p.reads.Add(1)
		return nil
	}
	f := &pageFlight{done: make(chan struct{})}
	p.inflight[id] = f
	p.sfMu.Unlock()

	page, err := p.fetchPage(id)
	f.body, f.err = page, err
	p.sfMu.Lock()
	delete(p.inflight, id)
	p.sfMu.Unlock()
	close(f.done)
	if err != nil {
		return fmt.Errorf("storage: read page %d from %s: %w", id, p.url, err)
	}
	copy(buf, page)
	p.reads.Add(1)
	return nil
}

// ReadPageRange fetches n consecutive pages starting at first with ONE range
// request (plus bounded retries), verifies each page against the checksum
// table when present, and returns one slice per page. It is the coalescing
// entry point of the prefetcher: adjacent sibling leaves queued together
// cost one round trip instead of n. The pages in the run are registered in
// the single-flight table, so a demand fault racing the coalesced fetch
// waits for its page's bytes instead of duplicating the request. Pages
// already in flight elsewhere are fetched again as part of the run (a single
// ranged GET cannot skip holes); their flights are left to their owners.
func (p *HTTPPager) ReadPageRange(first PageID, n int) ([][]byte, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("storage: read pages [%d,%d): pager is closed", first, int(first)+n)
	}
	if n <= 0 {
		return nil, fmt.Errorf("storage: read pages: non-positive run length %d", n)
	}
	if int(first)+n > p.numPages {
		return nil, fmt.Errorf("%w: read [%d,%d) of %d", ErrPageOutOfRange, first, int(first)+n, p.numPages)
	}
	// Register a flight for every page of the run we are first to want.
	flights := make([]*pageFlight, n)
	p.sfMu.Lock()
	for i := range flights {
		id := first + PageID(i)
		if _, busy := p.inflight[id]; busy {
			continue
		}
		flights[i] = &pageFlight{done: make(chan struct{})}
		p.inflight[id] = flights[i]
	}
	p.sfMu.Unlock()
	if n > 1 {
		p.coalesced.Add(1)
	}

	// One ranged fetch of the run's span; each page decodes into its own
	// buffer and verifies during the fetch's verification pass, so a corrupt
	// page retries the run like any transit failure.
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, p.pageSize)
	}
	off, length := p.span(first, n)
	_, _, err := p.fetchVerified(off, length, func(b []byte) error {
		for i, page := range pages {
			id := first + PageID(i)
			at, m := p.span(id, 1)
			if err := p.decodeFetched(id, b[at-off:at-off+int64(m)], page); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		p.reads.Add(int64(n))
	}
	p.sfMu.Lock()
	for i, f := range flights {
		if f == nil {
			continue
		}
		delete(p.inflight, first+PageID(i))
	}
	p.sfMu.Unlock()
	for i, f := range flights {
		if f == nil {
			continue
		}
		if err != nil {
			f.err = err
		} else {
			f.body = pages[i]
		}
		close(f.done)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read pages [%d,%d) from %s: %w", first, int(first)+n, p.url, err)
	}
	return pages, nil
}

// fetchPage fetches one page with a single ranged request (plus retries) of
// the bytes the layout stores it in, decoded and verified before it counts
// as fetched.
func (p *HTTPPager) fetchPage(id PageID) ([]byte, error) {
	page := make([]byte, p.pageSize)
	off, n := p.span(id, 1)
	_, _, err := p.fetchVerified(off, n, func(b []byte) error {
		return p.decodeFetched(id, b, page)
	})
	if err != nil {
		return nil, err
	}
	return page, nil
}

// decodeFetched is layout.decode for bytes that crossed the network. Both
// failure modes are reported as ErrBadChecksum: over a ranged fetch a blob
// that does not decode is indistinguishable from transit corruption, so it
// must stay retryable.
func (p *HTTPPager) decodeFetched(id PageID, stored, page []byte) error {
	err := p.decode(id, stored, page)
	if err == nil {
		return nil
	}
	p.checksumFail.Add(1)
	if errors.Is(err, ErrBadChecksum) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadChecksum, err)
}

// Stats returns cumulative physical I/O counters (reads only; the remote
// index never writes).
func (p *HTTPPager) Stats() Stats { return Stats{Reads: p.reads.Load()} }

// Remote returns the pager's transfer counters.
func (p *HTTPPager) Remote() RemoteStats {
	return RemoteStats{
		Fetches:          p.fetches.Load(),
		Retries:          p.retries.Load(),
		BytesFetched:     p.bytesFetched.Load(),
		ChecksumFailures: p.checksumFail.Load(),
		SharedFetches:    p.sharedFetch.Load(),
		CoalescedFetches: p.coalesced.Load(),
	}
}

// Close marks the pager closed, aborts in-flight fetches (and their retry
// loops) via context cancellation, and releases idle connections of a
// private client. Reads racing Close fail promptly instead of waiting out
// the retry budget — which is what keeps index unload and daemon drain fast
// even when the origin has hung.
func (p *HTTPPager) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.cancel()
	if p.ownedCli {
		p.cfg.Client.CloseIdleConnections()
	}
	return nil
}

// fetchVerified is the retry loop shared by page and table fetches: fetch
// the range, run the caller's verification over the body, and re-attempt
// transient failures — including verification failures, which on a ranged
// fetch mean transit or server corruption — with capped exponential backoff.
// The last error (typed: ErrBadChecksum, ErrRemote, or the transport's) is
// returned once attempts are exhausted.
func (p *HTTPPager) fetchVerified(off int64, n int, verify func([]byte) error) ([]byte, int64, error) {
	var lastErr error
	total := int64(-1)
	for attempt := 0; attempt <= p.cfg.MaxRetries; attempt++ {
		if err := p.ctx.Err(); err != nil {
			// The pager closed mid-retry: stop immediately.
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: %v", errPermanent, err)
			}
			break
		}
		if attempt > 0 {
			p.retries.Add(1)
			backoff := p.cfg.RetryBackoff << (attempt - 1)
			if backoff > p.cfg.MaxBackoff {
				backoff = p.cfg.MaxBackoff
			}
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-p.ctx.Done(): // Close aborts the backoff too
				t.Stop()
			}
		}
		body, tot, err := p.fetchOnce(off, n)
		if err != nil {
			lastErr = err
			if isPermanent(err) {
				break
			}
			continue
		}
		total = tot
		if verr := verify(body); verr != nil {
			lastErr = verr
			// Only a checksum mismatch plausibly means transit corruption a
			// re-fetch can heal. Structural decode failures (bad magic or
			// version, internal inconsistency) are properties of the object
			// at rest — pointing the pager at a non-index URL must fail
			// fast, not burn the retry budget.
			if errors.Is(verr, ErrBadChecksum) {
				continue
			}
			break
		}
		return body, total, nil
	}
	return nil, total, lastErr
}

// fetchOnce issues one ranged GET for [off, off+n) and returns the body and
// the total object size from Content-Range (-1 when unknown). Failures are
// classified for the retry loop by isPermanent.
func (p *HTTPPager) fetchOnce(off int64, n int) ([]byte, int64, error) {
	p.fetches.Add(1)
	req, err := http.NewRequestWithContext(p.ctx, http.MethodGet, p.url, nil)
	if err != nil {
		return nil, -1, fmt.Errorf("%w: %v", errPermanent, err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(n)-1))
	// After the first response pinned the object's validators, make the
	// range conditional: an origin honoring If-Range answers 200 (full body)
	// when the object changed, which the status switch below converts into
	// ErrOriginChanged instead of serving pages of a different build.
	ifRange := p.validator()
	if ifRange != "" {
		req.Header.Set("If-Range", ifRange)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		if p.ctx.Err() != nil {
			// Aborted by Close: permanent, do not burn the retry budget.
			return nil, -1, fmt.Errorf("%w: %v", errPermanent, err)
		}
		// Transport error (refused, reset, client timeout): retryable, and
		// wrapped so an exhausted retry loop still surfaces the typed
		// ErrRemote alongside the transport chain.
		return nil, -1, fmt.Errorf("%w: %w", ErrRemote, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	total := int64(-1)
	switch resp.StatusCode {
	case http.StatusPartialContent:
		total = parseContentRangeTotal(resp.Header.Get("Content-Range"))
	case http.StatusOK:
		// The server ignored the Range header — or, on a conditional range,
		// is telling us the object changed. A whole-file body still serves a
		// prefix read; anything else would mean downloading the file per
		// page, which is a misconfiguration, not a pager mode.
		if off != 0 {
			if ifRange != "" {
				return nil, -1, fmt.Errorf("%w: %w: %s answered a full body to If-Range %q",
					errPermanent, ErrOriginChanged, p.url, ifRange)
			}
			return nil, -1, fmt.Errorf("%w: %s does not support range requests (status 200 for offset %d)", errPermanent, p.url, off)
		}
		total = resp.ContentLength
	case http.StatusRequestTimeout, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return nil, -1, fmt.Errorf("%w: status %s", ErrRemote, resp.Status)
	default:
		return nil, -1, fmt.Errorf("%w: status %s", errPermanent, resp.Status)
	}
	if err := p.checkValidators(resp.Header.Get("ETag"), resp.Header.Get("Last-Modified")); err != nil {
		return nil, total, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, total, fmt.Errorf("%w: short body: %v", ErrRemote, err) // retryable
	}
	p.bytesFetched.Add(int64(n))
	return body, total, nil
}

// validator returns the If-Range value to send: the captured ETag, else the
// captured Last-Modified, else "" (first fetch, or an origin that sends
// neither).
func (p *HTTPPager) validator() string {
	p.valMu.Lock()
	defer p.valMu.Unlock()
	if p.etag != "" {
		return p.etag
	}
	return p.lastMod
}

// checkValidators captures the origin's ETag/Last-Modified on the first
// response that carries them and compares every later response against the
// captured pair, failing with ErrOriginChanged on a mismatch. This catches
// origins that ignore If-Range but do version their responses.
func (p *HTTPPager) checkValidators(etag, lastMod string) error {
	p.valMu.Lock()
	defer p.valMu.Unlock()
	if p.etag == "" && p.lastMod == "" {
		p.etag, p.lastMod = etag, lastMod
		return nil
	}
	if p.etag != "" && etag != "" && etag != p.etag {
		return fmt.Errorf("%w: %w: ETag %q, index opened with %q", errPermanent, ErrOriginChanged, etag, p.etag)
	}
	if p.etag == "" && lastMod != "" && lastMod != p.lastMod {
		return fmt.Errorf("%w: %w: Last-Modified %q, index opened with %q", errPermanent, ErrOriginChanged, lastMod, p.lastMod)
	}
	return nil
}

// errPermanent marks fetch failures retrying cannot fix (bad request, 404,
// no range support). It always travels wrapped alongside ErrRemote semantics
// and is unwrapped into ErrRemote before callers see it.
var errPermanent = fmt.Errorf("%w (permanent)", ErrRemote)

// isPermanent reports whether a fetch failure should stop the retry loop.
func isPermanent(err error) bool { return errors.Is(err, errPermanent) }

// parseContentRangeTotal extracts the total size from a Content-Range header
// ("bytes start-end/total"), returning -1 when absent or unparseable.
func parseContentRangeTotal(h string) int64 {
	i := strings.LastIndexByte(h, '/')
	if i < 0 {
		return -1
	}
	total, err := strconv.ParseInt(h[i+1:], 10, 64)
	if err != nil {
		return -1
	}
	return total
}
