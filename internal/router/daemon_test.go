package router

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// perfReads lists the /metrics JSON paths the frozen benchmark decodes
// (perf/client.go workerMetrics and routerMetrics): they may not move.
var perfReads = map[string][]string{
	"rcjd": {
		"sched.admitted", "sched.rejected_overload", "sched.rejected_queue_timeout", "sched.rejected_draining",
		"sched.batched_requests", "sched.queue_wait", "result_cache.hits", "result_cache.misses",
		"live.compactions", "live.compact_seconds", "live.delta_points",
	},
	"rcjrouter": {
		"requests", "subqueries", "subquery_retries", "shards_contacted", "shards_pruned",
		"bound_tightenings", "dedup_dropped",
	},
}

// TestMetricsParity holds both daemons' /metrics to one set of series in
// both encodings. It reads only the two responses: each Prometheus family's
// help text names its JSON twin, so every family must lead to a leaf of the
// JSON document and every leaf must be some family's twin. Both daemons pick
// the encoding the same way (?format=prom or Accept: text/plain).
func TestMetricsParity(t *testing.T) {
	d := newDeployment(t, false, 4, [][]int{nil}, nil)
	if status, data := postJoin(t, d.router.URL, `{"p":"p","q":"q","top_k":3}`); status != 200 {
		t.Fatalf("status %d: %s", status, data)
	}
	get := func(url, accept string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
		}
		return body
	}
	for daemon, base := range map[string]string{"rcjd": d.workers[0].URL, "rcjrouter": d.router.URL} {
		prom := string(get(base+"/metrics", "text/plain"))
		if byQuery := string(get(base+"/metrics?format=prom", "")); !sameFamilies(prom, byQuery) {
			t.Errorf("%s: Accept: text/plain and ?format=prom select different expositions", daemon)
		}
		// twin maps a JSON path to the family whose help names it.
		twin := map[string]string{}
		for _, line := range strings.Split(prom, "\n") {
			rest, ok := strings.CutPrefix(line, "# HELP ")
			if !ok {
				continue
			}
			family, _, _ := strings.Cut(rest, " ")
			_, path, ok := strings.Cut(rest, " JSON: ")
			if !ok {
				t.Errorf("%s: family %s names no JSON twin", daemon, family)
				continue
			}
			if other, dup := twin[path]; dup {
				t.Errorf("%s: families %s and %s share the JSON twin %s", daemon, other, family, path)
			}
			twin[path] = family
			if !strings.Contains(prom, "\n# TYPE "+family+" ") {
				t.Errorf("%s: family %s has no TYPE line", daemon, family)
			}
		}
		var doc map[string]any
		if err := json.Unmarshal(get(base+"/metrics", ""), &doc); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		var walk func(prefix string, v any)
		walk = func(prefix string, v any) {
			if _, ok := twin[prefix]; ok {
				seen[prefix] = true
				return
			}
			obj, ok := v.(map[string]any)
			if !ok {
				t.Errorf("%s: JSON series %s has no Prometheus family", daemon, prefix)
				return
			}
			for k, child := range obj {
				walk(strings.TrimPrefix(prefix+"."+k, "."), child)
			}
		}
		walk("", doc)
		for path, family := range twin {
			if !seen[path] {
				t.Errorf("%s: Prometheus family %s has no JSON series at %s", daemon, family, path)
			}
		}
		for _, path := range perfReads[daemon] {
			if !seen[path] {
				t.Errorf("%s: JSON path %s, which perf/client.go decodes, is gone", daemon, path)
			}
		}
	}
}

// sameFamilies reports whether two expositions declare the same families.
func sameFamilies(a, b string) bool {
	families := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				out = append(out, rest)
			}
		}
		return out
	}
	fa := families(a)
	return len(fa) > 0 && slices.Equal(fa, families(b))
}

// gatedTransport parks every worker request at a gate, announcing each
// arrival first: the router's scatter is then provably in flight.
type gatedTransport struct {
	arrived chan struct{}
	gate    chan struct{}
}

func (g gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	select {
	case <-g.gate:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterSIGTERMDrain runs the router behind the serve loop cmd/rcjrouter
// and rcjd share (server.ServeUntilDone) on a real listener and delivers a
// real SIGTERM while a scatter is in flight: the in-flight join completes
// with the full answer, new connections are refused, and the loop returns
// cleanly.
func TestRouterSIGTERMDrain(t *testing.T) {
	g := gatedTransport{arrived: make(chan struct{}, 1), gate: make(chan struct{})}
	d := newDeployment(t, false, 4, [][]int{nil}, func(c *Config) {
		c.Client = &http.Client{Transport: g}
	})
	const body = `{"p":"p","q":"q"}`
	_, refData := postJoin(t, d.reference.URL, body)
	want, _ := splitStream(t, refData, false)
	slices.Sort(want)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	stopping := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- server.ServeUntilDone(ctx, ln, d.rt.Handler(), 30*time.Second, func() { close(stopping) })
	}()

	type answer struct {
		status int
		data   []byte
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(base+"/join", "application/json", strings.NewReader(body))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, data, err}
	}()
	select {
	case <-g.arrived:
	case err := <-served:
		t.Fatalf("serve loop ended before the scatter started: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no sub-query reached the workers")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopping:
	case <-time.After(10 * time.Second):
		t.Fatal("the serve loop never began draining after SIGTERM")
	}
	// Shutdown closes the listener before it waits for handlers: a request
	// arriving now finds no one listening.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/shards")
		if err != nil {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("the router still accepts requests after SIGTERM")
		}
	}
	select {
	case a := <-answered:
		t.Fatalf("the gated join answered before its workers did: %+v", a)
	default:
	}

	close(g.gate)
	a := <-answered
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("in-flight join across the drain: status %d, %v: %s", a.status, a.err, a.data)
	}
	got, extra := splitStream(t, a.data, false)
	slices.Sort(got)
	if _, ok := extra["summary"]; !ok || !slices.Equal(got, want) {
		t.Fatalf("in-flight join returned %d rows (summary %v), the reference has %d", len(got), ok, len(want))
	}
	if err := <-served; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}
