package jobs

import (
	"sync"
	"time"

	"plp/internal/engine"
	"plp/internal/obs"
	"plp/internal/registry"
	"plp/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

// The job states. queued -> running -> {succeeded, failed, canceled};
// a queued job cancelled before a worker picks it up jumps straight to
// canceled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Job is one submitted unit of work. All mutable fields are guarded by
// mu; HTTP handlers read snapshots via Status while a worker runs the
// job.
type Job struct {
	id   string
	spec Spec

	// span is the job's root trace span, nil when the service runs
	// untraced. Set once at submit, before the job is visible to any
	// worker or handler, so reads need no lock; all Span methods are
	// nil-safe.
	span *obs.Span

	mu          sync.Mutex
	state       State
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	errMsg      string
	result      *registry.JobResult

	// cancelRequested latches the first Cancel; runCancel aborts the
	// running job body's context.
	cancelRequested bool
	runCancel       func()

	// Live run views, in start order: one sampler per engine run the
	// job has begun (sweep jobs with telemetry enabled), for partial
	// progress snapshots while the job executes.
	liveKeys []string
	live     map[string]*telemetry.Sampler
	started  int
	total    int
}

// ID returns the job's service-assigned identity.
func (j *Job) ID() string { return j.id }

// Spec returns the job's submission spec.
func (j *Job) Spec() Spec { return j.spec }

// TraceContext returns the job's root span context — the identity a
// caller propagates downstream (e.g. as a traceparent response
// header). The zero SpanContext when the service runs untraced.
func (j *Job) TraceContext() obs.SpanContext { return j.span.Context() }

// Result returns the job's final result, or nil while unfinished.
func (j *Job) Result() *registry.JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// RunProgress is one engine run's live view inside a job status.
type RunProgress struct {
	Scheme string `json:"scheme"`
	Bench  string `json:"bench"`
	// Persists/Epochs/Windows summarize the run's telemetry so far; a
	// run recorded without telemetry reports zeros.
	Persists uint64 `json:"persists"`
	Epochs   uint64 `json:"epochs"`
	Windows  int    `json:"windows"`
	// Telemetry is the full windowed series snapshot, included only
	// when the status was requested with telemetry detail.
	Telemetry *telemetry.Series `json:"telemetry,omitempty"`
}

// Status is a job's JSON view.
type Status struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`

	SubmittedAt string `json:"submittedAt"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`

	Error string `json:"error,omitempty"`

	// TraceID correlates the job with its span tree (GET
	// /jobs/{id}/trace) and log lines; empty when the service runs
	// untraced.
	TraceID string `json:"traceId,omitempty"`

	// TotalRuns/StartedRuns track sweep progress (0 total = unknown,
	// e.g. experiment and crash jobs).
	TotalRuns   int `json:"totalRuns,omitempty"`
	StartedRuns int `json:"startedRuns,omitempty"`

	// Runs holds the live per-run progress of an executing sweep, and
	// stays populated after completion.
	Runs []RunProgress `json:"runs,omitempty"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Status snapshots the job. withTelemetry additionally embeds each
// live run's full windowed series (potentially large); without it only
// the per-run headline counters are included.
func (j *Job) Status(withTelemetry bool) Status {
	j.mu.Lock()
	st := Status{
		ID:          j.id,
		Kind:        j.spec.Kind,
		State:       j.state,
		SubmittedAt: stamp(j.submittedAt),
		StartedAt:   stamp(j.startedAt),
		FinishedAt:  stamp(j.finishedAt),
		Error:       j.errMsg,
		TotalRuns:   j.total,
		StartedRuns: j.started,
	}
	if sc := j.span.Context(); sc.Valid() {
		st.TraceID = sc.TraceID.String()
	}
	type liveRef struct {
		key     string
		sampler *telemetry.Sampler
	}
	refs := make([]liveRef, 0, len(j.liveKeys))
	for _, k := range j.liveKeys {
		refs = append(refs, liveRef{k, j.live[k]})
	}
	j.mu.Unlock()

	// Snapshot the samplers outside j.mu: Sampler has its own lock and
	// the producing engine run may be mid-Record.
	for _, ref := range refs {
		scheme, bench, _ := cutKey(ref.key)
		rp := RunProgress{Scheme: scheme, Bench: bench}
		if ref.sampler != nil {
			snap := ref.sampler.Snapshot()
			rp.Windows = len(snap.Windows)
			rp.Persists = snap.Total(func(w telemetry.Window) uint64 { return w.Persists })
			rp.Epochs = snap.Total(func(w telemetry.Window) uint64 { return w.Epochs })
			if withTelemetry {
				rp.Telemetry = &snap
			}
		}
		st.Runs = append(st.Runs, rp)
	}
	return st
}

// observe registers one engine run's live sampler as the run starts
// (harness RecordOptions.Observe; called concurrently by the fan-out
// workers).
func (j *Job) observe(scheme engine.Scheme, bench string, s *telemetry.Sampler) {
	key := string(scheme) + "/" + bench
	j.mu.Lock()
	if _, ok := j.live[key]; !ok {
		j.liveKeys = append(j.liveKeys, key)
	}
	j.live[key] = s
	j.started++
	j.mu.Unlock()
}

func cutKey(key string) (scheme, bench string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return key, "", false
}
