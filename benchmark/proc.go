package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a child gets between SIGTERM and SIGKILL.
const stopGrace = 5 * time.Second

// supervisor owns every process the benchmark starts, so that one call
// stops them all on success, error, timeout or signal.
type supervisor struct {
	mu    sync.Mutex
	procs map[*child]struct{}
}

func newSupervisor() *supervisor {
	return &supervisor{procs: make(map[*child]struct{})}
}

// child is one started process. done closes once it has exited and
// been reaped; err is then Wait's result.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// start launches cmd and tracks it until it exits. The child stays in
// the benchmark's process group and is killed if the benchmark dies
// first, so no child outlives it.
func (s *supervisor) start(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	s.mu.Lock()
	s.procs[c] = struct{}{}
	s.mu.Unlock()
	go func() {
		c.err = cmd.Wait()
		s.mu.Lock()
		delete(s.procs, c)
		s.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// stop sends the child SIGTERM, SIGKILL after stopGrace, and returns
// once it has exited.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	// An error means the child already exited; done still closes.
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	t := time.NewTimer(stopGrace)
	defer t.Stop()
	select {
	case <-c.done:
	case <-t.C:
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// stopAll stops every process still running.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	var cs []*child
	for c := range s.procs {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			c.stop()
		}(c)
	}
	wg.Wait()
}

// runSelf runs this binary as a child process with args and returns
// its standard output and the time just before it was started. The
// child is stopped if ctx ends first.
func runSelf(ctx context.Context, sup *supervisor, args ...string) ([]byte, time.Time, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	spawn := time.Now()
	c, err := sup.start(cmd)
	if err != nil {
		return nil, spawn, err
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		c.stop()
		return nil, spawn, fmt.Errorf("child %s: %w", strings.Join(args, " "), ctx.Err())
	}
	if c.err != nil {
		return nil, spawn, fmt.Errorf("child %s: %w", strings.Join(args, " "), c.err)
	}
	return out.Bytes(), spawn, nil
}

// tail keeps the last bytes a process wrote, for error messages.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// addrWatch scans a plpserve's standard output for its
// "plpserve: addr=<host:port>" line and hands the address over once.
type addrWatch struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	addr chan string // capacity 1: one send, read at most once
}

func newAddrWatch() *addrWatch { return &addrWatch{addr: make(chan string, 1)} }

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if a, ok := strings.CutPrefix(line, "plpserve: addr="); ok {
			w.addr <- a
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}
