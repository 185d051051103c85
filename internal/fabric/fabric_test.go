package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/metrics"
	"plp/internal/registry"
)

const (
	testInstructions = 150_000
	testWarmup       = 10_000
)

var (
	testBenches = []string{"astar", "gcc", "milc"}
	testSchemes = []string{"secure_WB", "sp"}
)

func testSweep() Sweep {
	return Sweep{
		Tag:          "job-test",
		Benches:      testBenches,
		Schemes:      testSchemes,
		Instructions: testInstructions,
		Warmup:       testWarmup,
		NoTelemetry:  true,
	}
}

// localReference records the same sweep single-process — the bytes the
// fabric must reproduce.
func localReference(t *testing.T) *registry.File {
	t.Helper()
	schemes := make([]engine.Scheme, len(testSchemes))
	for i, s := range testSchemes {
		schemes[i] = engine.Scheme(s)
	}
	runs := harness.Record(harness.RecordOptions{
		Options: harness.Options{
			Instructions: testInstructions,
			Warmup:       testWarmup,
			Benches:      testBenches,
		},
		Schemes:     schemes,
		NoTelemetry: true,
	})
	f := registry.New("local", testInstructions, false)
	f.Warmup = testWarmup
	f.Runs = runs
	f.Sort()
	return f
}

// newTestCoordinator serves a coordinator over httptest.
func newTestCoordinator(t *testing.T, mod func(*CoordinatorConfig)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := CoordinatorConfig{
		Heartbeat:  50 * time.Millisecond,
		WorkerTTL:  time.Minute, // tests do not heartbeat; evict via dispatch errors
		StealAfter: time.Minute,
		Metrics:    metrics.New(),
	}
	if mod != nil {
		mod(&cfg)
	}
	c := NewCoordinator(cfg)
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv
}

func hostport(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

// startWorker serves a worker over httptest (wrap lets a test distort
// its run handler) and registers it with the coordinator.
func startWorker(t *testing.T, coord *httptest.Server, wrap func(http.HandlerFunc) http.HandlerFunc) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{Coordinator: hostport(coord)})
	run := w.HandleRun
	if wrap != nil {
		run = wrap(run)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRun, run)
	mux.HandleFunc("GET "+PathVersion, w.HandleVersion)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	w.cfg.Addr = hostport(srv)
	if _, err := w.register(context.Background()); err != nil {
		t.Fatalf("register: %v", err)
	}
	return w
}

func mustMarshalResult(t *testing.T, f *registry.File) []byte {
	t.Helper()
	data, err := registry.MarshalJobResult(&registry.JobResult{Sweep: f})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// canonicalize zeroes the legitimately machine-dependent fields so the
// remainder can be compared byte-for-byte.
func canonicalize(f *registry.File) {
	f.Tag, f.CreatedAt = "x", "x"
	f.Memo = nil
	for i := range f.Runs {
		f.Runs[i].WallNS, f.Runs[i].StoresPerSec = 0, 0
	}
}

// TestSweepIdenticalToLocal shards a sweep across three workers and
// demands the merged file be identical to the single-process run — and
// byte-identical once the wall-clock fields are canonicalized.
func TestSweepIdenticalToLocal(t *testing.T) {
	c, srv := newTestCoordinator(t, nil)
	for i := 0; i < 3; i++ {
		startWorker(t, srv, nil)
	}
	if n := c.LiveWorkers(); n != 3 {
		t.Fatalf("live workers = %d, want 3", n)
	}

	merged, err := c.RunSweep(context.Background(), testSweep(), nil, nil)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	local := localReference(t)
	if diffs := registry.Identical(local, merged); len(diffs) != 0 {
		t.Fatalf("merged sweep differs from single-process run:\n%s", strings.Join(diffs, "\n"))
	}
	canonicalize(merged)
	canonicalize(local)
	if got, want := mustMarshalResult(t, merged), mustMarshalResult(t, local); !bytes.Equal(got, want) {
		t.Fatalf("canonicalized JobResult bytes differ:\n%s\nvs\n%s", got, want)
	}
	if c.commits.Value() != uint64(len(testBenches)*len(testSchemes)) {
		t.Fatalf("commits = %d, want %d", c.commits.Value(), len(testBenches)*len(testSchemes))
	}
}

// TestSweepWorkerDiesMidRun kills one of three workers after its first
// unit (the connection drops mid-dispatch, like a SIGKILL) and demands
// the sweep still complete identically.
func TestSweepWorkerDiesMidRun(t *testing.T) {
	c, srv := newTestCoordinator(t, nil)
	// The healthy workers hold every unit until the dying worker has
	// taken its second lease, so they cannot drain the sweep before the
	// kill happens. The test deadline bounds the hold if it never does.
	killed := make(chan struct{})
	hold := time.Minute
	if deadline, ok := t.Deadline(); ok {
		hold = time.Until(deadline) / 2
	}
	healthy := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			select {
			case <-killed:
			case <-time.After(hold):
			}
			next(rw, r)
		}
	}
	startWorker(t, srv, healthy)
	startWorker(t, srv, healthy)
	var served atomic.Int32
	startWorker(t, srv, func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			if n := served.Add(1); n > 1 {
				if n == 2 {
					close(killed)
				}
				conn, _, err := rw.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			next(rw, r)
		}
	})

	merged, err := c.RunSweep(context.Background(), testSweep(), nil, nil)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	local := localReference(t)
	if diffs := registry.Identical(local, merged); len(diffs) != 0 {
		t.Fatalf("merged sweep differs after worker death:\n%s", strings.Join(diffs, "\n"))
	}
	if served.Load() < 2 {
		t.Fatalf("dying worker served %d requests; the kill never happened", served.Load())
	}
	if c.evictions.Value() == 0 {
		t.Fatal("worker death should evict")
	}
	if c.requeues.Value() == 0 {
		t.Fatal("killed dispatch should re-queue its unit")
	}
}

// TestSweepLocalFallback runs a sweep with no workers at all: the
// coordinator must finish every unit on its own stack.
func TestSweepLocalFallback(t *testing.T) {
	c, _ := newTestCoordinator(t, nil)
	sw := testSweep()
	sw.Benches = testBenches[:1]
	merged, err := c.RunSweep(context.Background(), sw, nil, nil)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if want := len(testSchemes); len(merged.Runs) != want {
		t.Fatalf("runs = %d, want %d", len(merged.Runs), want)
	}
	if c.localFallbacks.Value() != uint64(len(testSchemes)) {
		t.Fatalf("local fallback units = %d, want %d", c.localFallbacks.Value(), len(testSchemes))
	}
}

// TestSweepStreamsCommits checks the per-unit progress callback fires
// once per unit.
func TestSweepStreamsCommits(t *testing.T) {
	c, srv := newTestCoordinator(t, nil)
	startWorker(t, srv, nil)
	var commits atomic.Int32
	sw := testSweep()
	sw.Benches = testBenches[:1]
	if _, err := c.RunSweep(context.Background(), sw, nil, func(Unit) { commits.Add(1) }); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if int(commits.Load()) != len(testSchemes) {
		t.Fatalf("onCommit fired %d times, want %d", commits.Load(), len(testSchemes))
	}
}

// TestSweepStealsFromStraggler hangs one worker's first unit forever;
// with a short steal age the other worker must pick it up.
func TestSweepStealsFromStraggler(t *testing.T) {
	c, srv := newTestCoordinator(t, func(cfg *CoordinatorConfig) {
		cfg.StealAfter = 100 * time.Millisecond
	})
	var hung atomic.Int32
	startWorker(t, srv, func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			if hung.Add(1) == 1 {
				// Drain the body so net/http's client-disconnect watch can
				// run, then straggle until the dispatch is abandoned.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			next(rw, r)
		}
	})
	startWorker(t, srv, nil)

	sw := testSweep()
	sw.Benches = testBenches[:1]
	merged, err := c.RunSweep(context.Background(), sw, nil, nil)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	local := localReference(t)
	local.Runs = local.Runs[:0]
	for _, r := range localReference(t).Runs {
		if r.Bench == sw.Benches[0] {
			local.Runs = append(local.Runs, r)
		}
	}
	if diffs := registry.Identical(local, merged); len(diffs) != 0 {
		t.Fatalf("stolen sweep differs:\n%s", strings.Join(diffs, "\n"))
	}
	if c.steals.Value() == 0 {
		t.Fatal("straggler's unit should have been stolen")
	}
}

// TestRegisterVersionGate rejects a worker advertising a different
// scheme set.
func TestRegisterVersionGate(t *testing.T) {
	_, srv := newTestCoordinator(t, nil)
	w := NewWorker(WorkerConfig{
		Coordinator: hostport(srv),
		Version:     VersionInfo{Module: "plp", GoVersion: "go0.0", Schemes: []string{"secure_WB"}},
	})
	mux := http.NewServeMux()
	w.Mount(mux)
	wsrv := httptest.NewServer(mux)
	defer wsrv.Close()
	w.cfg.Addr = hostport(wsrv)

	_, err := w.register(context.Background())
	if err == nil || !strings.Contains(err.Error(), "scheme sets differ") {
		t.Fatalf("want scheme-set rejection, got %v", err)
	}
	if !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409 conflict, got %v", err)
	}
}

// TestRegisterUnreachableWorker rejects an addr the coordinator cannot
// dial back.
func TestRegisterUnreachableWorker(t *testing.T) {
	_, srv := newTestCoordinator(t, nil)
	body, _ := json.Marshal(RegisterRequest{Addr: "127.0.0.1:1"})
	resp, err := http.Post(srv.URL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

// TestHeartbeatLifecycle: expiry evicts a silent worker; its next
// heartbeat draws 410 Gone; re-registering from the same addr works
// and replaces any stale entry.
func TestHeartbeatLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, srv := newTestCoordinator(t, func(cfg *CoordinatorConfig) {
		cfg.WorkerTTL = time.Second
		cfg.Now = clock
	})
	w := startWorker(t, srv, nil)
	id := w.ID()
	if id == "" {
		t.Fatal("no worker ID after register")
	}

	beat := func(id string) int {
		body, _ := json.Marshal(HeartbeatRequest{WorkerID: id})
		resp, err := http.Post(srv.URL+PathHeartbeat, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := beat(id); code != http.StatusOK {
		t.Fatalf("heartbeat = %d, want 200", code)
	}

	now = now.Add(2 * time.Second) // past TTL
	if n := c.LiveWorkers(); n != 0 {
		t.Fatalf("live workers after TTL = %d, want 0", n)
	}
	if code := beat(id); code != http.StatusGone {
		t.Fatalf("heartbeat after eviction = %d, want 410", code)
	}

	// Re-register the same addr: accepted, new identity.
	if _, err := w.register(context.Background()); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if w.ID() == id {
		t.Fatal("re-registration should assign a fresh worker ID")
	}
	if n := c.LiveWorkers(); n != 1 {
		t.Fatalf("live workers after re-register = %d, want 1", n)
	}
}

// TestSweepPermanentUnitFailure fails the whole sweep on a 422 rather
// than re-queueing a unit that can never succeed.
func TestSweepPermanentUnitFailure(t *testing.T) {
	c, srv := newTestCoordinator(t, nil)
	startWorker(t, srv, nil)
	sw := testSweep()
	sw.Benches = []string{"astar"}
	sw.Schemes = []string{"no_such_scheme"}
	_, err := c.RunSweep(context.Background(), sw, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("want permanent 422 failure, got %v", err)
	}
}

// TestUnitSeedMismatch: a worker whose profile table disagrees on the
// trace seed must refuse the unit (it would simulate something else).
func TestUnitSeedMismatch(t *testing.T) {
	u := Unit{Scheme: "sp", Bench: "astar", Seed: 12345, Instructions: 1000}
	_, err := ExecuteUnit(context.Background(), u, Stack{}, nil)
	var ue *UnitError
	if err == nil || !strings.Contains(err.Error(), "seed mismatch") {
		t.Fatalf("want seed mismatch, got %v", err)
	}
	if !errorsAs(err, &ue) {
		t.Fatalf("seed mismatch should be a permanent UnitError, got %T", err)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target *(*UnitError)) bool {
	ue, ok := err.(*UnitError)
	if ok {
		*target = ue
	}
	return ok
}

// TestVersionCompat covers the scheme-set gate directly.
func TestVersionCompat(t *testing.T) {
	v := CurrentVersion()
	if want := len(engine.AllSchemes()); len(v.Schemes) != want {
		t.Fatalf("supported schemes = %d, want %d (everything registered)", len(v.Schemes), want)
	}
	if ok, _ := v.CompatibleWith(v); !ok {
		t.Fatal("a build must be compatible with itself")
	}
	w := CurrentVersion()
	w.GoVersion = "go1.0"
	w.Module = "other"
	if ok, _ := v.CompatibleWith(w); !ok {
		t.Fatal("module/go versions are informational, not gating")
	}
	w.Schemes = w.Schemes[:7]
	ok, reason := v.CompatibleWith(w)
	if ok || !strings.Contains(reason, "scheme sets differ") {
		t.Fatalf("want scheme-set rejection, got ok=%v reason=%q", ok, reason)
	}
	// Order must not matter.
	x := CurrentVersion()
	x.Schemes[0], x.Schemes[1] = x.Schemes[1], x.Schemes[0]
	if ok, _ := v.CompatibleWith(x); !ok {
		t.Fatal("scheme-set comparison must be order-insensitive")
	}
}
