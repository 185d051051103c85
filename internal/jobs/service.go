package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/fabric"
	"plp/internal/harness"
	"plp/internal/metrics"
	"plp/internal/obs"
	"plp/internal/registry"
	"plp/internal/sim"
	"plp/internal/stats"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// Config parameterizes a Service. Zero fields take defaults.
type Config struct {
	// QueueDepth bounds the submitted-but-not-started backlog; a full
	// queue rejects submissions with ErrQueueFull (the HTTP layer's
	// 429). Default 16.
	QueueDepth int
	// Workers is the number of jobs executing concurrently. Default 2:
	// each sweep job already fans its benchmarks across CPUs, so a few
	// concurrent jobs saturate the machine without thrashing it.
	Workers int
	// RunParallel caps each job's internal fan-out workers (harness
	// Options.Parallel; 0 = GOMAXPROCS). With several service workers,
	// bounding this keeps a single wide job from starving the rest.
	RunParallel int
	// DefaultTimeout bounds jobs that do not set Spec.TimeoutSec
	// (0 = unbounded).
	DefaultTimeout time.Duration

	// Metrics, when non-nil, is the registry this service instruments
	// itself into (queue depth and capacity gauges, and the SLO
	// instruments: queue-wait and job-duration summaries plus the shed
	// and cancel burn counters). Each service owns its own
	// instruments — two services can share a process, each with its
	// own registry, without collisions.
	Metrics *metrics.Registry

	// Tracer, when non-nil, records one span tree per job (job →
	// sweep-point → engine run) in its bounded store, keyed by job ID.
	// Nil — the default — is the exact pre-tracing path: every span
	// hook is a nil-receiver no-op.
	Tracer *obs.Tracer
	// Log, when non-nil, receives structured lifecycle records (submit,
	// shed, dequeue, cancel, drain stragglers, finish) correlated with
	// job and trace IDs. Nil logs nothing, exactly as before.
	Log *slog.Logger

	// Memo, when non-nil, is the sweep-point memo shared by every sweep
	// job this service runs: repeated sweeps over the same
	// (bench, scheme, config) points are served from the cache,
	// bit-identical to cold runs (harness equivalence tests). Its
	// counters surface on plpserve /metrics. Nil memoizes nothing.
	Memo *harness.Memo
	// Traces, when non-nil, is the shared trace batch cache: each
	// (benchmark, seed, instructions) op stream is generated once and
	// replayed by every run that needs it. Nil generates privately.
	Traces *trace.Store
	// Probe, when non-nil, observes the harness fan-out pools of every
	// job (queue depth, occupancy high-water) for the /metrics gauges.
	Probe *harness.PoolProbe

	// Fabric, when non-nil, is the distributed sweep coordinator a
	// KindDistSweep job shards through. A distsweep submitted with no
	// fabric — or a fabric with no registered workers — runs on the
	// local pool exactly like KindSweep, so the kind is always safe to
	// submit; the result is identical either way.
	Fabric *fabric.Coordinator

	// OnFinish, when non-nil, is called after a job reaches a terminal
	// state and has left its worker.
	OnFinish func(*Job)
}

func (c *Config) fill() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New() // private, unexported registry
	}
}

// The service's sentinel errors; the HTTP layer maps each to a status
// code (429, 503, 404, 409).
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: service draining")
	ErrNotFound  = errors.New("jobs: no such job")
	ErrFinished  = errors.New("jobs: job already finished")
)

// Service owns the queue, the worker pool, and the job index.
type Service struct {
	cfg Config

	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      uint64
	draining bool

	// workersDone closes when every worker has exited (drain complete).
	workersDone chan struct{}

	// shed counts queue-full rejections (plp_jobs_shed_total) — the
	// load-shedding burn counter an SLO alert rates over time.
	shed *metrics.Counter
	// canceled counts jobs that reached the canceled terminal state
	// (plp_jobs_canceled_total), incremented exactly once per job.
	canceled *metrics.Counter

	// slo aggregates queue-wait and job-duration histograms and pushes
	// their digests into the exposition summaries after every update.
	slo struct {
		mu        sync.Mutex
		queueWait stats.Histogram
		duration  stats.Histogram

		queueWaitSum *metrics.Summary
		durationSum  *metrics.Summary
	}

	// runJob is the execution seam; tests substitute it to inject
	// failures without touching the real runners.
	runJob func(ctx context.Context, j *Job) (*registry.JobResult, error)
}

// New starts a service: a bounded queue drained by a fixed pool of
// workers. The pool rides harness.Fan — the same worker-pool
// discipline every sweep already uses — with one long-lived "item" per
// worker looping over the queue.
func New(cfg Config) *Service {
	cfg.fill()
	s := &Service{
		cfg:         cfg,
		queue:       make(chan *Job, cfg.QueueDepth),
		jobs:        make(map[string]*Job),
		workersDone: make(chan struct{}),
	}
	s.runJob = s.execute
	cfg.Metrics.GaugeFunc("plp_jobs_queue_depth",
		"Jobs queued but not yet started.",
		func() float64 { return float64(len(s.queue)) })
	cfg.Metrics.GaugeFunc("plp_jobs_queue_capacity",
		"Bound on the submitted-but-not-started backlog.",
		func() float64 { return float64(cfg.QueueDepth) })
	s.shed = cfg.Metrics.Counter("plp_jobs_shed_total",
		"Submissions shed because the queue was full (the 429 burn counter).")
	s.canceled = cfg.Metrics.Counter("plp_jobs_canceled_total",
		"Jobs that reached the canceled terminal state.")
	s.slo.queueWaitSum = cfg.Metrics.Summary("plp_jobs_queue_wait_microseconds",
		"Time jobs spent queued before a worker picked them up.")
	s.slo.durationSum = cfg.Metrics.Summary("plp_jobs_duration_milliseconds",
		"Wall time from a job's start to its terminal state.")
	go func() {
		defer close(s.workersDone)
		harness.Fan(cfg.Workers, cfg.Workers, func(int) {
			for j := range s.queue {
				s.process(j)
			}
		})
	}()
	return s
}

// Submit validates and enqueues a job. It never blocks: a full queue
// returns ErrQueueFull immediately (load shedding), a draining service
// ErrDraining, an invalid spec an error wrapping ErrInvalidSpec.
func (s *Service) Submit(spec Spec) (*Job, error) {
	return s.SubmitTraced(spec, obs.SpanContext{})
}

// SubmitTraced is Submit with an inbound trace context (a parsed W3C
// traceparent header): the job's root span adopts its trace ID and
// parents under its span, so a caller's trace continues through the
// queue and every engine run. A zero parent starts a fresh trace (when
// the service has a tracer at all).
func (s *Service) SubmitTraced(spec Spec, parent obs.SpanContext) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	j := &Job{
		id:          fmt.Sprintf("j%06d", s.seq),
		spec:        spec,
		state:       StateQueued,
		submittedAt: time.Now(),
		live:        make(map[string]*telemetry.Sampler),
		total:       spec.plannedRuns(),
	}
	// Shed before creating any state. Every sender holds s.mu and the
	// workers only drain, so a non-full queue here guarantees the send
	// below cannot block — which lets the span be assigned (and the job
	// indexed) strictly before a worker can see the job: the channel send
	// is the happens-before edge that publishes j.span.
	if len(s.queue) == cap(s.queue) {
		s.seq--
		s.shed.Inc()
		if s.cfg.Log != nil {
			s.cfg.Log.Warn("shed-429", "kind", spec.Kind,
				"queue_depth", cap(s.queue), "trace", traceIDString(parent))
		}
		return nil, ErrQueueFull
	}
	j.span = s.cfg.Tracer.StartRoot(j.id, "job", parent,
		obs.String("kind", string(spec.Kind)))
	j.span.Event("submit", obs.Int("queue_depth", len(s.queue)))
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue <- j
	if s.cfg.Log != nil {
		s.cfg.Log.Info("submit", "job", j.id, "kind", spec.Kind,
			"trace", traceIDString(j.TraceContext()))
	}
	return j, nil
}

// traceIDString renders a context's trace ID for log correlation ("" =
// untraced).
func traceIDString(sc obs.SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID.String()
}

// Get returns a job by ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns known jobs sorted by submission time (ties by ID). A
// positive limit bounds the result to the limit most recently
// submitted jobs — the index otherwise grows without bound over a
// server's life; limit <= 0 returns everything.
func (s *Service) List(limit int) []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	s.mu.Unlock()
	// submittedAt is immutable after Submit; sorting outside s.mu needs
	// no job locks.
	sort.SliceStable(out, func(i, k int) bool {
		if !out[i].submittedAt.Equal(out[k].submittedAt) {
			return out[i].submittedAt.Before(out[k].submittedAt)
		}
		return out[i].id < out[k].id
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Stats is a service-health snapshot for readiness reporting.
type Stats struct {
	// QueueDepth / QueueCapacity describe the submit backlog.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	// Jobs counts every job the index knows (any state).
	Jobs int `json:"jobs"`
	// Draining reports whether intake has been closed for shutdown.
	Draining bool `json:"draining"`
}

// Stats snapshots the service's readiness-relevant state.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Jobs:          len(s.jobs),
		Draining:      s.draining,
	}
}

// Cancel requests a job stop: a queued job goes terminal immediately
// (its worker will discard it), a running job's context cancels and
// the engine abandons the run within its next cancellation poll.
// Cancelling a finished job returns ErrFinished; an unknown ID,
// ErrNotFound. Cancel is idempotent on a job that is still winding
// down.
func (s *Service) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state.Terminal():
		if j.state == StateCanceled {
			return nil // idempotent
		}
		return ErrFinished
	case j.cancelRequested:
		return nil // already winding down
	}
	j.cancelRequested = true
	j.span.Event("cancel", obs.String("while", string(j.state)))
	if s.cfg.Log != nil {
		s.cfg.Log.Info("cancel", "job", j.id, "while", j.state,
			"trace", traceIDString(j.span.Context()))
	}
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finishedAt = time.Now()
		j.errMsg = "canceled before start"
		s.canceled.Inc()
		j.span.Event("finish", obs.String("state", string(StateCanceled)))
		j.span.End()
		return nil
	}
	if j.runCancel != nil {
		j.runCancel()
	}
	return nil
}

// Drain stops intake and waits for the backlog to finish: Submit
// returns ErrDraining from now on, queued jobs still execute, and
// Drain returns once every worker has exited. If ctx expires first,
// all still-running jobs are cancelled and Drain waits for the (now
// fast) wind-down before returning ctx.Err() — the IDs of the jobs it
// cut short come back in cut, so callers (and the logs) can tell
// exactly which work a forced shutdown sacrificed. A clean drain
// returns (nil, nil).
func (s *Service) Drain(ctx context.Context) (cut []string, err error) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.workersDone:
		return nil, nil
	case <-ctx.Done():
	}
	for _, j := range s.List(0) {
		if j.State().Terminal() {
			continue
		}
		j.span.Event("drain-straggler")
		if s.cfg.Log != nil {
			s.cfg.Log.Warn("drain-straggler", "job", j.ID(), "state", j.State(),
				"trace", traceIDString(j.TraceContext()))
		}
		if s.Cancel(j.ID()) == nil {
			cut = append(cut, j.ID())
		}
	}
	<-s.workersDone
	return cut, ctx.Err()
}

// process runs one dequeued job to its terminal state.
func (s *Service) process(j *Job) {
	if !s.begin(j) {
		// Cancelled while queued; already terminal.
		if s.cfg.OnFinish != nil {
			s.cfg.OnFinish(j)
		}
		return
	}
	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutSec > 0 {
		timeout = time.Duration(j.spec.TimeoutSec) * time.Second
	}
	res, err := s.run(j, timeout)
	switch {
	case err == nil:
		s.finish(j, StateSucceeded, res, "")
	case j.wasCancelled():
		s.finish(j, StateCanceled, nil, "canceled")
	case errors.Is(err, context.DeadlineExceeded):
		s.finish(j, StateFailed, nil, fmt.Sprintf("deadline exceeded after %v", timeout))
	default:
		s.finish(j, StateFailed, nil, err.Error())
	}
	if s.cfg.OnFinish != nil {
		s.cfg.OnFinish(j)
	}
}

// begin moves a queued job to running; false if it went terminal
// (cancelled) while waiting in the queue. The queue wait lands in the
// SLO summary here — the submit-to-start latency a capacity alert
// watches.
func (s *Service) begin(j *Job) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	wait := j.startedAt.Sub(j.submittedAt)
	span := j.span
	j.mu.Unlock()

	span.Event("dequeue", obs.Duration("queue_wait", wait))
	if s.cfg.Log != nil {
		s.cfg.Log.Info("dequeue", "job", j.id, "queue_wait", wait.String(),
			"trace", traceIDString(span.Context()))
	}
	s.slo.mu.Lock()
	s.slo.queueWait.Add(uint64(wait.Microseconds()))
	digest := s.slo.queueWait.Summarize()
	s.slo.mu.Unlock()
	s.slo.queueWaitSum.Set(digest)
	return true
}

// run executes the job body under a context carrying the job's
// deadline and cancellation. The job's root span rides the context
// into the body, where the harness hangs its per-run (sweep-point)
// spans off it.
func (s *Service) run(j *Job, timeout time.Duration) (res *registry.JobResult, err error) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	j.mu.Lock()
	if j.cancelRequested {
		j.mu.Unlock()
		return nil, context.Canceled
	}
	j.runCancel = cancel
	j.mu.Unlock()
	ctx = obs.ContextWithSpan(ctx, j.span)
	defer func() {
		j.mu.Lock()
		j.runCancel = nil
		j.mu.Unlock()
		if r := recover(); r != nil {
			// A panicking job must not take its worker down with it;
			// surface the panic as a failure.
			res, err = nil, fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return s.runJob(ctx, j)
}

func (s *Service) finish(j *Job, st State, res *registry.JobResult, msg string) {
	j.mu.Lock()
	j.state = st
	j.finishedAt = time.Now()
	j.result = res
	j.errMsg = msg
	dur := j.finishedAt.Sub(j.startedAt)
	span := j.span
	j.mu.Unlock()

	if st == StateCanceled {
		s.canceled.Inc()
	}
	s.slo.mu.Lock()
	s.slo.duration.Add(uint64(dur.Milliseconds()))
	digest := s.slo.duration.Summarize()
	s.slo.mu.Unlock()
	s.slo.durationSum.Set(digest)

	attrs := []obs.Attr{obs.String("state", string(st))}
	if msg != "" {
		attrs = append(attrs, obs.String("error", msg))
	}
	span.Event("finish", attrs...)
	span.End()
	if s.cfg.Log != nil {
		s.cfg.Log.Info("finish", "job", j.id, "state", st, "duration", dur.String(),
			"error", msg, "trace", traceIDString(span.Context()))
	}
}

func (j *Job) wasCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// execute is the real job body: dispatch on kind, thread ctx into the
// harness so the engine's cancellation hook sees it.
func (s *Service) execute(ctx context.Context, j *Job) (*registry.JobResult, error) {
	switch j.spec.Kind {
	case KindSweep:
		return s.runSweep(ctx, j)
	case KindDistSweep:
		return s.runDistSweep(ctx, j)
	case KindExperiment:
		return s.runExperiment(ctx, j)
	case KindCrash:
		return s.runCrash(ctx, j)
	default:
		// Unreachable past Validate; belt and braces for the seam.
		return nil, fmt.Errorf("jobs: unknown kind %q", j.spec.Kind)
	}
}

func (s *Service) runSweep(ctx context.Context, j *Job) (*registry.JobResult, error) {
	spec := j.spec
	ro := harness.RecordOptions{
		Options: harness.Options{
			Instructions: spec.Instructions,
			Warmup:       spec.Warmup,
			Benches:      spec.Benches,
			FullMemory:   spec.FullMemory,
			Parallel:     s.cfg.RunParallel,
			Memo:         s.cfg.Memo,
			Traces:       s.cfg.Traces,
			Probe:        s.cfg.Probe,
		},
		Schemes:     spec.engineSchemes(),
		Interval:    sim.Cycle(spec.Interval),
		NoTelemetry: spec.NoTelemetry,
		Span:        obs.SpanFromContext(ctx),
		Observe:     j.observe,
	}
	runs, err := harness.RecordContext(ctx, ro)
	if err != nil {
		return nil, err
	}
	f := registry.New("job-"+j.id, spec.Instructions, spec.FullMemory)
	f.Warmup = spec.Warmup
	f.Runs = runs
	f.Sort()
	return &registry.JobResult{Sweep: f}, nil
}

// runDistSweep shards the sweep across the fabric's registered
// workers; with no fabric or no live workers it degrades to the local
// pool (runSweep), logging the downgrade so operators can tell which
// path a job took.
func (s *Service) runDistSweep(ctx context.Context, j *Job) (*registry.JobResult, error) {
	span := obs.SpanFromContext(ctx)
	if s.cfg.Fabric == nil || s.cfg.Fabric.LiveWorkers() == 0 {
		span.Event("distsweep-local-fallback")
		if s.cfg.Log != nil {
			reason := "no fabric configured"
			if s.cfg.Fabric != nil {
				reason = "no workers registered"
			}
			s.cfg.Log.Info("distsweep-local-fallback", "job", j.id, "reason", reason,
				"trace", traceIDString(j.TraceContext()))
		}
		return s.runSweep(ctx, j)
	}
	spec := j.spec
	sw := fabric.Sweep{
		Tag:          "job-" + j.id,
		Benches:      spec.Benches,
		Schemes:      spec.Schemes,
		Instructions: spec.Instructions,
		Warmup:       spec.Warmup,
		FullMemory:   spec.FullMemory,
		Interval:     spec.Interval,
		NoTelemetry:  spec.NoTelemetry,
	}
	f, err := s.cfg.Fabric.RunSweep(ctx, sw, span, func(u fabric.Unit) {
		// Shards stream back as they commit: count each toward the job's
		// progress. There is no live sampler — the run executed in another
		// process — so the live view shows the key without a series.
		j.observe(engine.Scheme(u.Scheme), u.Bench, nil)
	})
	if err != nil {
		return nil, err
	}
	return &registry.JobResult{Sweep: f}, nil
}

func (s *Service) runExperiment(ctx context.Context, j *Job) (*registry.JobResult, error) {
	spec := j.spec
	drv := harness.All()[spec.Experiment]
	e := drv(harness.Options{
		Instructions: spec.Instructions,
		Warmup:       spec.Warmup,
		Benches:      spec.Benches,
		FullMemory:   spec.FullMemory,
		Parallel:     s.cfg.RunParallel,
		Memo:         s.cfg.Memo,
		Traces:       s.cfg.Traces,
		Probe:        s.cfg.Probe,
		Cancel:       func() bool { return ctx.Err() != nil },
	})
	if err := ctx.Err(); err != nil {
		// The driver returned, but some of its runs were abandoned
		// mid-flight: the numbers are not a real experiment.
		return nil, err
	}
	return &registry.JobResult{Experiment: &registry.ExperimentResult{
		ID:          e.ID,
		Description: e.Description,
		Summary:     e.Summary,
		Table:       e.Table.Markdown(),
	}}, nil
}

func (s *Service) runCrash(ctx context.Context, j *Job) (*registry.JobResult, error) {
	var cc crash.CampaignConfig
	if j.spec.Crash != nil {
		cc = *j.spec.Crash
	}
	cc.Parallel = s.cfg.RunParallel
	rep, err := crash.RunCampaign(ctx, cc)
	if err != nil {
		return nil, err
	}
	return &registry.JobResult{Crash: rep.RegistryFile("job-" + j.id)}, nil
}
