package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: daemons are built once per benchmark process, bound to a
// free loopback port of their own choosing (-addr 127.0.0.1:0, read back
// from their start-up log), polled on /healthz, and stopped and waited for
// before the workload returns — on success, error, SIGINT or guard abort.

var buildOnce sync.Once
var buildErr error

// daemons returns the directory holding rcjd and rcjrouter, building them
// from the repository's sources on first use. Compilation is not part of
// setup_s: it happens before the first set-up starts.
func (e *environment) daemons() (string, error) {
	if e.binDir != "" {
		return e.binDir, nil
	}
	buildOnce.Do(func() {
		dir := filepath.Join(e.workDir, "bin")
		if buildErr = os.MkdirAll(dir, 0o755); buildErr != nil {
			return
		}
		cmd := exec.CommandContext(e.ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/rcjd", "./cmd/rcjrouter")
		cmd.Dir = e.root
		cmd.Stderr = os.Stderr
		if buildErr = cmd.Run(); buildErr != nil {
			buildErr = fmt.Errorf("build daemons: %w", buildErr)
			return
		}
		e.binDir = dir
	})
	return e.binDir, buildErr
}

// proc is one child process of the system under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port it serves on
	done chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var servingRE = regexp.MustCompile(`\bon (127\.0\.0\.1:\d+)`)

// startProc launches bin with args plus "-addr 127.0.0.1:0", waits for the
// log line naming the bound address, then for /healthz to answer 200.
func startProc(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil && !found && strings.Contains(line, "serving") {
				found = true
				addrCh <- m[1]
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case p.addr = <-addrCh:
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("%s exited before serving: %s", name, p.lastLog())
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address: %s", name, p.lastLog())
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.url() + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.stop()
			return nil, fmt.Errorf("%s never became healthy: %v %s", name, err, p.lastLog())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) lastLog() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop asks the process to drain (SIGTERM), kills it if it has not gone
// after three seconds, and waits until it has ended.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.cmd.Wait()
}

// cpuSeconds is user+system CPU time the process has used so far.
func (p *proc) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
}

// peakRSSMB is the process's resident-set high-water mark.
func (p *proc) peakRSSMB() float64 { return peakRSSMB(p.cmd.Process.Pid) }

func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPUSeconds is this process's user+system CPU time (the embedded
// workloads run the system under test in-process).
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
