package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/rcj"
)

// TestDaemonSIGTERMDrain boots the full rcjd stack (RunDaemon is everything
// cmd/rcjd does minus flag parsing), drives 8 concurrent HTTP clients over
// a real listener with maxConcurrent=2, delivers a real SIGTERM to the
// process while two streams are mid-flight and six requests are queued in
// admission, and checks the daemon drains: every admitted join streams to
// completion with the full result set before RunDaemon returns.
func TestDaemonSIGTERMDrain(t *testing.T) {
	// Large enough that one response cannot fit in socket buffers, so the
	// two running handlers genuinely block mid-stream while their clients
	// hold at the gate.
	pPath, qPath, _, _ := buildSavedIndexes(t, 2500)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	const (
		clients       = 8
		maxConcurrent = 2
	)
	addrCh := make(chan string, 1)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- RunDaemon(ctx, DaemonConfig{
			Addr:        "127.0.0.1:0",
			Indexes:     map[string]string{"p": pPath, "q": qPath},
			Backend:     rcj.BackendMem,
			BufferPages: 2048,
			Sched:       sched.Config{MaxConcurrent: maxConcurrent, MaxQueue: clients},
			Logf:        t.Logf,
		}, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-daemonErr:
		t.Fatalf("daemon died before ready: %v", err)
	}

	// Reference result computed out-of-band.
	pIx, err := rcj.OpenIndex(pPath, rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pIx.Close()
	qIx, err := rcj.OpenIndex(qPath, rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer qIx.Close()
	want, _, err := rcj.NewEngine(rcj.EngineConfig{}).RunCollect(context.Background(), qIx, pIx, rcj.Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := pairSet(t, want)

	// All 8 clients connect up front: 2 are admitted and stream, 6 wait in
	// the admission queue. Each admitted client reads its first pair, then
	// pauses on the gate — so exactly the running streams are provably
	// in flight when the signal lands.
	gate := make(chan struct{})
	firstLine := make(chan struct{}, clients)
	var completed sync.Map
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/join", "application/json",
				strings.NewReader(`{"p":"p","q":"q"}`))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			br := bufio.NewReader(resp.Body)
			if _, err := br.ReadBytes('\n'); err != nil {
				t.Errorf("client %d: first pair: %v", i, err)
				return
			}
			firstLine <- struct{}{}
			<-gate // hold the stream open across the SIGTERM
			pairs, summary := decodeStream(t, br)
			if summary == nil {
				t.Errorf("client %d: stream ended without summary", i)
				return
			}
			if len(pairs)+1 != len(want) { // +1: the line consumed above
				t.Errorf("client %d: %d pairs (+1 consumed), want %d", i, len(pairs), len(want))
				return
			}
			for k := range pairSet(t, pairs) {
				if wantSet[k] == 0 {
					t.Errorf("client %d: pair not in RunCollect result: %s", i, k)
					return
				}
			}
			completed.Store(i, true)
		}(i)
	}
	// Wait until the two admitted streams are provably mid-flight.
	for i := 0; i < maxConcurrent; i++ {
		select {
		case <-firstLine:
		case <-time.After(10 * time.Second):
			t.Fatal("admitted clients never started streaming")
		}
	}
	// ...and until the other six have reached admission: a request that
	// arrives after the signal is (correctly) answered 503, so the drain
	// contract only covers requests the scheduler already holds. They are
	// queued while the two streams block on their clients — or already
	// admitted in turn, when the kernel's socket buffers swallowed a whole
	// response and freed its slot early.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Sched sched.Snapshot `json:"sched"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Sched.Admitted+int64(m.Sched.Queued) == clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler holds %d admitted + %d queued requests, want %d", m.Sched.Admitted, m.Sched.Queued, clients)
		}
	}

	// Real signal, real handler: the daemon must begin draining. New
	// connections are then refused (listener closed) or answered 503.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			break // listener closed: shutdown in progress
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break // draining
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started draining after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the in-flight clients; the queued six get admitted as slots
	// free (they were accepted before the signal) and stream through the
	// drain as well.
	close(gate)
	wg.Wait()

	n := 0
	completed.Range(func(_, _ any) bool { n++; return true })
	if n != clients {
		t.Fatalf("%d/%d clients completed their stream across the drain", n, clients)
	}
	if err := <-daemonErr; err != nil {
		t.Fatalf("RunDaemon: %v", err)
	}
}
