package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"plp/internal/fabric"
	"plp/internal/jobs"
	"plp/internal/metrics"
	"plp/internal/obs"
	"plp/internal/registry"
)

// server binds the job service and the instance's metrics to the HTTP
// API.
type server struct {
	svc *jobs.Service
	m   *serverMetrics
	tr  *obs.Tracer

	// coord is set when this instance runs the fabric coordinator role
	// (-coordinator): its registration/heartbeat/state endpoints mount
	// on the API mux. worker is set for the worker role (-join): its
	// unit-execution endpoint mounts the same way. Both are assigned
	// before handler() is called.
	coord  *fabric.Coordinator
	worker *fabric.Worker
}

// newServer wires one complete service instance: its own metrics
// registry (shared with the job service it creates) and the hook
// chain. Multiple servers coexist in one process — nothing here
// registers into global state.
func newServer(cfg jobs.Config) *server {
	return newServerWithFabric(cfg, nil)
}

// newServerWithFabric is newServer for a coordinator instance: mkCoord
// (when non-nil) builds the fabric coordinator against this instance's
// metrics registry, and the job service is wired to shard distsweep
// jobs through it.
func newServerWithFabric(cfg jobs.Config, mkCoord func(*metrics.Registry) *fabric.Coordinator) *server {
	m := newServerMetrics()
	cfg.OnFinish = m.finish
	if cfg.Metrics == nil {
		// The job service adds its queue gauges and SLO instruments to
		// the same exposition.
		cfg.Metrics = m.reg
	}
	if cfg.Memo != nil {
		m.bindMemo(cfg.Memo)
	}
	if cfg.Probe != nil {
		m.bindPoolProbe(cfg.Probe)
	}
	if cfg.Tracer == nil {
		// Every server instance traces its jobs by default: the store is
		// bounded (obs.Config zero value → 256 traces) so an idle default
		// costs one map. No logger — the job service logs its own
		// lifecycle edges; a second sink would duplicate each record.
		cfg.Tracer = obs.New(obs.Config{})
	}
	var coord *fabric.Coordinator
	if mkCoord != nil {
		coord = mkCoord(m.reg)
		cfg.Fabric = coord
	}
	return &server{svc: jobs.New(cfg), m: m, tr: cfg.Tracer, coord: coord}
}

// jsonError writes a {"error": ...} body with the given status.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handler builds the ServeMux: the job API (the service's public
// face), metrics, and health.
func (s *server) handler() *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", s.submitJob)
	mux.HandleFunc("GET /jobs", s.listJobs)
	mux.HandleFunc("GET /jobs/{id}", s.getJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.cancelJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.jobResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.jobTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.Handle("GET /metrics", s.m.reg.Handler())
	// Every instance serves its build fingerprint: the fabric
	// coordinator dials it back as the worker registration compat check,
	// and humans/scripts use it to see what a server can simulate.
	mux.HandleFunc("GET "+fabric.PathVersion, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, fabric.CurrentVersion())
	})
	if s.coord != nil {
		s.coord.Mount(mux)
	}
	if s.worker != nil {
		// Only the unit endpoint: /version is already mounted above.
		mux.HandleFunc("POST "+fabric.PathRun, s.worker.HandleRun)
	}
	return mux
}

// submitJob accepts a jobs.Spec and enqueues it: 202 with the job's
// status and a Location header, 400 on an invalid spec, 429 when the
// queue is full (load shedding), 503 while draining for shutdown.
func (s *server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jsonError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	// An inbound W3C traceparent makes the job's span tree part of the
	// caller's distributed trace; a missing or malformed header starts a
	// fresh trace.
	parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	j, err := s.svc.SubmitTraced(spec, parent)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrInvalidSpec):
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, jobs.ErrQueueFull):
		s.m.jobsRejected.Inc()
		w.Header().Set("Retry-After", "5")
		jsonError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrDraining):
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.m.jobsSubmitted.Inc()
	w.Header().Set("Location", "/jobs/"+j.ID())
	if tp := j.TraceContext().Traceparent(); tp != "" {
		w.Header().Set(obs.TraceparentHeader, tp)
	}
	writeJSON(w, http.StatusAccepted, j.Status(false))
}

// defaultListLimit caps GET /jobs responses when the caller gives no
// ?limit — jobs accumulate for the process lifetime, so an unbounded
// default would grow without end. ?limit=0 asks for everything.
const defaultListLimit = 100

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	limit := defaultListLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", raw)
			return
		}
		limit = n
	}
	js := s.svc.List(limit)
	out := make([]jobs.Status, 0, len(js))
	for _, j := range js {
		out = append(out, j.Status(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	withTelemetry := r.URL.Query().Get("telemetry") == "1"
	writeJSON(w, http.StatusOK, j.Status(withTelemetry))
}

// cancelJob requests cancellation: 202 with the (possibly already
// terminal) status, 404 for an unknown ID, 409 for a job that already
// succeeded or failed.
func (s *server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.svc.Cancel(id)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrNotFound):
		jsonError(w, http.StatusNotFound, "no such job")
		return
	case errors.Is(err, jobs.ErrFinished):
		jsonError(w, http.StatusConflict, "job already finished")
		return
	default:
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	j, _ := s.svc.Get(id)
	writeJSON(w, http.StatusAccepted, j.Status(false))
}

// jobResult serves the finished payload: 200 with the registry-form
// result for a succeeded job, 409 while it is still queued/running or
// when it finished without a result (failed, canceled), 404 unknown.
func (s *server) jobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.State()
	if !st.Terminal() {
		jsonError(w, http.StatusConflict, "job %s is %s; poll /jobs/%s until it finishes", j.ID(), st, j.ID())
		return
	}
	res := j.Result()
	if res == nil {
		jsonError(w, http.StatusConflict, "job %s %s without a result: %s", j.ID(), st, j.Status(false).Error)
		return
	}
	data, err := registry.MarshalJobResult(res)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// jobTrace serves a job's span tree: the nested JSON form by default,
// or one span per line with ?format=jsonl. 404 covers both an unknown
// job ID and a trace already evicted from the bounded store.
func (s *server) jobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.svc.Get(id); !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	tree, ok := s.tr.Tree(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "no trace for job %s (untraced or evicted)", id)
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.tr.WriteJSONL(id, w)
		return
	}
	writeJSON(w, http.StatusOK, tree)
}

// readyz reports readiness to take new work: 200 with the service's
// queue stats normally, 503 once draining for shutdown — the signal a
// load balancer uses to stop routing before the listener closes.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	code := http.StatusOK
	if st.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}
