package main

import (
	"bytes"
	"context"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/rcj"
)

// In-process serving stacks for the traced run, assembled from the same
// public constructors cmd/rcjd and cmd/rcjrouter call, with the daemons'
// flag defaults, so that the harness can put its wrappers at the seams
// (http.Handler, router.Config.Client).

// daemonDefaults mirrors rcjd's flag defaults.
func daemonDefaults() (rcj.EngineConfig, sched.Config, server.Config) {
	return rcj.EngineConfig{BufferPages: 4096},
		sched.Config{
			MaxConcurrent: 2, MaxQueue: 16, QueueTimeout: 5 * time.Second,
			Batch: sched.BatchConfig{Enabled: true, MaxRequests: sched.DefaultBatchMaxRequests},
		},
		server.Config{Backend: rcj.BackendMem, ResultCacheEntries: 256, ResultCachePairs: server.DefaultResultCachePairs}
}

// daemonStack is one rcjd, in-process.
type daemonStack struct {
	eng *rcj.Engine
	sch *sched.Scheduler
	srv *server.Server
}

func newDaemonStack() *daemonStack {
	ec, sc, vc := daemonDefaults()
	eng := rcj.NewEngine(ec)
	sch := sched.New(eng, sc)
	return &daemonStack{eng: eng, sch: sch, srv: server.New(sch, vc)}
}

func (d *daemonStack) close() { d.srv.Close() }

// spanHeader carries the causing span's id across the in-process HTTP hop
// from the router's client to the worker's handler.
const spanHeader = "X-Perf-Span"

// tracedHandler records one server.handle span per POST, under the span the
// request names (a router sub-query) or the current operation's root.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := t.beginUnder(spanServer, int32(parent))
		h.ServeHTTP(w, r)
		t.endUnder(id)
	})
}

// subCall is one worker sub-query as the router's client saw it.
type subCall struct {
	span int32
	body []byte       // the sub-request the router sent
	resp bytes.Buffer // the worker's NDJSON answer
}

// tracingTransport is the timing RoundTripper the traced router is given
// as router.Config.Client's transport: a router.sub span from send until
// the response body is closed, and a copy of request and response so the
// harness can replay the sub-query below the HTTP layer.
type tracingTransport struct {
	base http.RoundTripper
	t    *tracer

	mu    sync.Mutex
	calls []*subCall
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := &subCall{}
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		call.body = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	call.span = tt.t.beginUnder(spanSub, tt.t.current())
	req.Header.Set(spanHeader, strconv.Itoa(int(call.span)))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.endUnder(call.span)
		return nil, err
	}
	tt.mu.Lock()
	tt.calls = append(tt.calls, call)
	tt.mu.Unlock()
	resp.Body = &tracedBody{ReadCloser: resp.Body, call: call, t: tt.t}
	return resp, nil
}

// take returns the calls recorded since the last take.
func (tt *tracingTransport) take() []*subCall {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	out := tt.calls
	tt.calls = nil
	return out
}

type tracedBody struct {
	io.ReadCloser
	call *subCall
	t    *tracer
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.call.resp.Write(p[:n])
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.endUnder(b.call.span) })
	return err
}

// serveInProcess calls an http.Handler directly — no socket, no client —
// and reads the NDJSON answer the way the network client does.
func serveInProcess(h http.Handler, path string, body []byte) (reply, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	ms := time.Since(t0).Seconds() * 1e3
	r := reply{first: -1, ms: ms}
	if rec.Code != http.StatusOK {
		return r, &statusError{rec.Code, rec.Body.String()}
	}
	err := readStream(rec.Body, t0, &r)
	r.ms = ms // the handler's time, not the harness's parsing
	return r, err
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return "status " + strconv.Itoa(e.code) + ": " + e.body }

// drainSeq consumes a join iterator, returning milliseconds from t0 to
// exhaustion.
func drainSeq(seq iter.Seq2[rcj.Pair, error], t0 time.Time) (float64, digest, error) {
	var d digest
	for pr, err := range seq {
		if err != nil {
			return 0, d, err
		}
		d.add(pr.P.ID, pr.Q.ID)
	}
	return time.Since(t0).Seconds() * 1e3, d, nil
}

// runSched executes o through Scheduler.Run, sequentially.
func runSched(ctx context.Context, sch *sched.Scheduler, ixs map[string]*rcj.Index, o op) (float64, digest, error) {
	qry := o.qry
	qry.Parallelism = 1
	var st rcj.Stats
	t0 := time.Now()
	var (
		seq iter.Seq2[rcj.Pair, error]
		err error
	)
	if o.self() {
		seq, err = sch.RunSelf(ctx, ixs[o.p], qry, &st)
	} else {
		seq, err = sch.Run(ctx, ixs[o.q], ixs[o.p], qry, &st)
	}
	if err != nil {
		return 0, digest{}, err
	}
	return drainSeq(seq, t0)
}
