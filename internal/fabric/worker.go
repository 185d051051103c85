package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/obs"
	"plp/internal/registry"
	"plp/internal/sim"
	"plp/internal/trace"
)

// ExecuteUnit runs one shard on the local stack and wraps it as a
// one-run shard file. It is the single execution path shared by
// workers and the coordinator's local fallback, so a shard is the same
// bytes no matter where it ran (the simulator is deterministic; only
// the wall-clock fields differ between machines).
func ExecuteUnit(ctx context.Context, u Unit, st Stack, span *obs.Span) (*registry.File, error) {
	p, ok := trace.ProfileByName(u.Bench)
	if !ok {
		return nil, &UnitError{Unit: u, Msg: "unknown benchmark"}
	}
	if p.Seed != u.Seed {
		return nil, &UnitError{Unit: u, Msg: fmt.Sprintf(
			"trace seed mismatch: unit wants %d, this build's profile has %d", u.Seed, p.Seed)}
	}
	if err := (engine.Config{Scheme: engine.Scheme(u.Scheme)}).Validate(); err != nil {
		return nil, &UnitError{Unit: u, Msg: err.Error()}
	}
	runs, err := harness.RecordContext(ctx, harness.RecordOptions{
		Options: harness.Options{
			Instructions: u.Instructions,
			Warmup:       u.Warmup,
			Benches:      []string{u.Bench},
			FullMemory:   u.FullMemory,
			Parallel:     st.Parallel,
			Memo:         st.Memo,
			Probe:        st.Probe,
		},
		Schemes:     []engine.Scheme{engine.Scheme(u.Scheme)},
		Interval:    sim.Cycle(u.Interval),
		NoTelemetry: u.NoTelemetry,
		Span:        span,
	})
	if err != nil {
		return nil, err
	}
	if len(runs) != 1 {
		return nil, fmt.Errorf("fabric: unit %s/%s produced %d runs, want 1",
			u.Scheme, u.Bench, len(runs))
	}
	f := registry.New(fmt.Sprintf("shard-%d", u.ID), u.Instructions, u.FullMemory)
	f.Warmup = u.Warmup
	f.Runs = runs
	return f, nil
}

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Addr is the worker's advertised dial-back address (host:port);
	// the coordinator fetches Addr/version at registration and POSTs
	// units to Addr/fabric/run.
	Addr string
	// Coordinator is the coordinator's base address (host:port).
	Coordinator string
	// Stack is the worker's local execution environment (memo, trace
	// cache, pool probe).
	Stack Stack
	// Tracer, when non-nil, records one span tree per executed unit,
	// keyed "unit-<id>", adopting the coordinator's traceparent so the
	// shard run is part of the job's distributed trace.
	Tracer *obs.Tracer
	// Log, when non-nil, receives worker lifecycle records.
	Log *slog.Logger
	// Client is the HTTP client used for registration and heartbeats
	// (nil = http.DefaultClient).
	Client *http.Client
	// Version is the advertised build fingerprint (zero = CurrentVersion).
	Version VersionInfo
}

// Worker executes fabric units: it registers with a coordinator,
// heartbeats, and serves POST /fabric/run + GET /version. The HTTP
// server itself belongs to the caller (plpserve mounts the handlers on
// its API mux; tests use httptest) — the Worker only provides the
// handlers and the client-side join/heartbeat loop.
type Worker struct {
	cfg WorkerConfig
	id  atomicString
}

// NewWorker builds a worker. Addr and Coordinator are required for
// Run; a handler-only worker (tests) may leave Coordinator empty.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if len(cfg.Version.Schemes) == 0 {
		cfg.Version = CurrentVersion()
	}
	return &Worker{cfg: cfg}
}

// ID returns the coordinator-assigned worker identity ("" before the
// first successful registration).
func (w *Worker) ID() string { return w.id.Load() }

// Mount registers the worker-side protocol handlers on mux.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathRun, w.HandleRun)
	mux.HandleFunc("GET "+PathVersion, w.HandleVersion)
}

// HandleVersion serves the worker's build fingerprint.
func (w *Worker) HandleVersion(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, w.cfg.Version)
}

// HandleRun executes one unit synchronously and returns its shard —
// the "stream partial results back" leg of the protocol is each unit's
// own response. Permanent unit failures (unknown scheme/bench, seed
// mismatch) are 422 so the coordinator fails the sweep instead of
// re-queueing a unit that can never succeed; anything else is 500 and
// re-queueable.
func (w *Worker) HandleRun(rw http.ResponseWriter, r *http.Request) {
	var u Unit
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		httpError(rw, http.StatusBadRequest, "bad unit: %v", err)
		return
	}
	var span *obs.Span
	if w.cfg.Tracer != nil {
		parent, _ := obs.ParseTraceparent(u.Traceparent)
		span = w.cfg.Tracer.StartRoot(fmt.Sprintf("unit-%d", u.ID), "fabric-worker-unit", parent,
			obs.String("scheme", u.Scheme), obs.String("bench", u.Bench))
	}
	shard, err := ExecuteUnit(r.Context(), u, w.cfg.Stack, span)
	if err != nil {
		span.SetAttr(obs.String("error", err.Error()))
		span.End()
		var ue *UnitError
		if errors.As(err, &ue) {
			httpError(rw, http.StatusUnprocessableEntity, "%v", err)
		} else {
			httpError(rw, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	span.End()
	if w.cfg.Log != nil {
		w.cfg.Log.Info("fabric-unit-done", "unit", u.ID, "scheme", u.Scheme, "bench", u.Bench)
	}
	writeJSON(rw, http.StatusOK, UnitResult{UnitID: u.ID, WorkerID: w.id.Load(), Shard: shard})
}

// Run joins the coordinator and heartbeats until ctx is done:
// registration retries with backoff while the coordinator is
// unreachable, and a 410 on heartbeat (evicted, or the coordinator
// restarted) loops back to re-registration. Run returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	backoff := 200 * time.Millisecond
	for {
		interval, err := w.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if w.cfg.Log != nil {
				w.cfg.Log.Warn("fabric-register-failed", "coordinator", w.cfg.Coordinator, "error", err.Error())
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 200 * time.Millisecond
		if err := w.heartbeatLoop(ctx, interval); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Evicted or unreachable: fall through to re-register.
			if w.cfg.Log != nil {
				w.cfg.Log.Warn("fabric-heartbeat-lost", "worker", w.id.Load(), "error", err.Error())
			}
		}
	}
}

// register announces the worker and returns the heartbeat interval.
func (w *Worker) register(ctx context.Context) (time.Duration, error) {
	body, _ := json.Marshal(RegisterRequest{Addr: w.cfg.Addr})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+w.cfg.Coordinator+PathRegister, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("fabric: register rejected (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, fmt.Errorf("fabric: register response: %w", err)
	}
	w.id.Store(rr.WorkerID)
	if w.cfg.Log != nil {
		w.cfg.Log.Info("fabric-registered", "worker", rr.WorkerID, "coordinator", w.cfg.Coordinator)
	}
	return time.Duration(rr.HeartbeatMillis) * time.Millisecond, nil
}

// heartbeatLoop beats until ctx is done or the coordinator drops us.
func (w *Worker) heartbeatLoop(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		body, _ := json.Marshal(HeartbeatRequest{WorkerID: w.id.Load()})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://"+w.cfg.Coordinator+PathHeartbeat, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			return fmt.Errorf("fabric: worker %s evicted", w.id.Load())
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fabric: heartbeat status %d", resp.StatusCode)
		}
	}
}

// atomicString is a tiny mutex-free string cell (the worker ID is
// written by the join loop and read by concurrent run handlers).
type atomicString struct {
	mu sync.Mutex
	s  string
}

func (a *atomicString) Store(s string) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *atomicString) Load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
