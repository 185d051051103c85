package jobs

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/metrics"
	"plp/internal/registry"
)

// watcher collects OnFinish notifications so tests can wait for a
// specific job without polling.
type watcher struct {
	mu   sync.Mutex
	done map[string]chan struct{}
}

func newWatcher() *watcher {
	return &watcher{done: make(map[string]chan struct{})}
}

func (w *watcher) ch(id string) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.done[id]
	if !ok {
		c = make(chan struct{})
		w.done[id] = c
	}
	return c
}

func (w *watcher) onFinish(j *Job) { close(w.ch(j.ID())) }

func (w *watcher) wait(t *testing.T, j *Job, timeout time.Duration) {
	t.Helper()
	select {
	case <-w.ch(j.ID()):
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish within %v (state %s)", j.ID(), timeout, j.State())
	}
}

func newTestService(t *testing.T, cfg Config) (*Service, *watcher) {
	t.Helper()
	w := newWatcher()
	cfg.OnFinish = w.onFinish
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = s.Drain(ctx)
	})
	return s, w
}

// TestSweepJobEquivalence pins the tentpole claim: a job-mode sweep
// produces exactly the runs a direct (CLI-path) harness.Record of the
// same options produces — job mode is cycle-identical.
func TestSweepJobEquivalence(t *testing.T) {
	o := harness.RecordOptions{
		Options:     harness.Options{Instructions: 40_000, Benches: []string{"gamess", "gcc"}},
		NoTelemetry: true,
	}
	direct := registry.New("direct", o.Instructions, false)
	direct.Runs = harness.Record(o)
	direct.Sort()

	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(Spec{
		Kind:         KindSweep,
		Benches:      []string{"gamess", "gcc"},
		Instructions: 40_000,
		NoTelemetry:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 60*time.Second)
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("job state %s, status %+v", st, j.Status(false))
	}
	res := j.Result()
	if res == nil || res.Sweep == nil {
		t.Fatal("succeeded sweep job has no sweep result")
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	got, want := res.Sweep.Runs, direct.Runs
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("run counts differ: job %d, direct %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		a.WallNS, b.WallNS = 0, 0
		a.StoresPerSec, b.StoresPerSec = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("run %d (%s): job-mode result differs from direct Record (cycles %d vs %d)",
				i, a.Key(), a.Cycles, b.Cycles)
		}
	}

	// The result round-trips through its wire form.
	data, err := registry.MarshalJobResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := registry.UnmarshalJobResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sweep.Runs) != len(got) {
		t.Fatalf("round-trip lost runs: %d vs %d", len(back.Sweep.Runs), len(got))
	}
}

// TestExperimentJob runs a small harness experiment through the
// service and checks the serialized table arrives.
func TestExperimentJob(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(Spec{
		Kind:         KindExperiment,
		Experiment:   "fig8",
		Benches:      []string{"gamess"},
		Instructions: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 60*time.Second)
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("state %s: %s", st, j.Status(false).Error)
	}
	res := j.Result()
	if res == nil || res.Experiment == nil {
		t.Fatal("no experiment result")
	}
	if res.Experiment.ID != "Fig8" || res.Experiment.Table == "" {
		t.Fatalf("unexpected experiment result: %+v", res.Experiment)
	}
	if len(res.Experiment.Summary) == 0 {
		t.Fatal("experiment summary empty")
	}
}

// TestCrashJob runs a tiny crash campaign through the service.
func TestCrashJob(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(Spec{Kind: KindCrash, Crash: &crash.CampaignConfig{
		Schemes:      []engine.Scheme{engine.SchemePipeline},
		Instructions: 20_000,
		Systematic:   16,
		Random:       8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 120*time.Second)
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("state %s: %s", st, j.Status(false).Error)
	}
	res := j.Result()
	if res == nil || res.Crash == nil {
		t.Fatal("no crash result")
	}
	if len(res.Crash.Schemes) != 1 || res.Crash.Schemes[0].Points == 0 {
		t.Fatalf("crash campaign report: %+v", res.Crash.Schemes)
	}
	if !res.Crash.Clean {
		t.Fatal("expected a clean campaign")
	}
}

// TestCrashJobCancel cancels a running crash campaign and requires it
// to stop within its in-flight point checks: the window runs and the
// point fan-out both watch the job's context. Uncancelled, this
// campaign (three schemes, 60k instructions, 448 + 64 points each)
// runs for well over ten seconds.
func TestCrashJobCancel(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(Spec{Kind: KindCrash, Crash: &crash.CampaignConfig{
		Schemes: []engine.Scheme{engine.SchemeSP, engine.SchemePipeline, engine.SchemeO3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 60*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s after cancelling a running crash job", st)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("crash job took %v to stop after cancel", d)
	}
}

// TestMemoSweepReportsProgress resubmits a sweep to a service with a
// memo: every point is served from the memo, and the job still counts
// each one as started and lists it under runs.
func TestMemoSweepReportsProgress(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1, Memo: harness.NewMemo(0)})
	spec := Spec{Kind: KindSweep, Benches: []string{"gamess"},
		Schemes: []string{"pipeline", "sp"}, Instructions: 40_000}
	var st Status
	for pass := 0; pass < 2; pass++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.wait(t, j, 60*time.Second)
		if j.State() != StateSucceeded {
			t.Fatalf("pass %d: state %s: %s", pass, j.State(), j.Status(false).Error)
		}
		st = j.Status(false)
	}
	if hits := s.cfg.Memo.Stats().Hits; hits != 2 {
		t.Fatalf("resubmitted sweep hit the memo %d times, want 2", hits)
	}
	if st.TotalRuns != 2 || st.StartedRuns != st.TotalRuns || len(st.Runs) != 2 {
		t.Fatalf("memo-served job: started %d of %d runs, %d runs entries",
			st.StartedRuns, st.TotalRuns, len(st.Runs))
	}
}

// TestServiceMemoryFlatAcrossJobs: a service keeps no op stream
// between jobs that miss its memo. One worker and RunParallel 1 put
// every run on one arena, whose recording is the only stream the jobs
// read, and each job's distinct instruction count makes every point a
// memo miss, as in a stream of fresh sweeps. After the first job the
// live heap may grow by the jobs' stored results, a few KB a point,
// but not by a trace batch per benchmark and job (about 30 MB over
// these jobs).
func TestServiceMemoryFlatAcrossJobs(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1, RunParallel: 1, Memo: harness.NewMemo(0)})
	live := func() uint64 {
		runtime.GC()
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		rtmetrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	const jobs, maxGrowth = 24, 8 << 20
	var base uint64
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gcc", "milc"},
			Instructions: 100_000 + uint64(i), NoTelemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		w.wait(t, j, 60*time.Second)
		if j.State() != StateSucceeded {
			t.Fatalf("job %d: state %s: %s", i, j.State(), j.Status(false).Error)
		}
		if i == 0 {
			base = live()
		}
	}
	if st := s.cfg.Memo.Stats(); st.Hits != 0 || st.Misses != 2*6*jobs {
		t.Fatalf("memo stats %+v, want %d misses and no hits", st, 2*6*jobs)
	}
	growth := int64(live()) - int64(base)
	t.Logf("live heap grew %.1f MB over %d jobs after the first", float64(growth)/(1<<20), jobs-1)
	if growth > maxGrowth {
		t.Errorf("live heap grew %.1f MB over %d jobs after the first, want at most %d MB",
			float64(growth)/(1<<20), jobs-1, maxGrowth>>20)
	}
}

// TestSubmitInvalid checks the submit-side gate and its 400 tag.
func TestSubmitInvalid(t *testing.T) {
	s, _ := newTestService(t, Config{Workers: 1})
	cases := []Spec{
		{},
		{Kind: "bogus"},
		{Kind: KindSweep, Benches: []string{"nonesuch"}},
		{Kind: KindSweep, Schemes: []string{"nonesuch"}},
		{Kind: KindSweep, Experiment: "fig8"},
		{Kind: KindExperiment},
		{Kind: KindExperiment, Experiment: "nonesuch"},
		{Kind: KindSweep, TimeoutSec: -1},
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("case %d: want ErrInvalidSpec, got %v", i, err)
		}
	}
}

// block returns a runJob seam that parks until its context fires.
func block() func(context.Context, *Job) (*registry.JobResult, error) {
	return func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func sweepSpec() Spec {
	return Spec{Kind: KindSweep, Benches: []string{"gamess"}, Schemes: []string{"pipeline"},
		Instructions: 40_000, NoTelemetry: true}
}

// TestCancelRunning cancels a job mid-run and expects a prompt
// canceled state.
func TestCancelRunning(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	started := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 10*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s after cancel", st)
	}
	// Cancelling again is idempotent; a second distinct error would be
	// ErrFinished for succeeded/failed jobs only.
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
}

// TestCancelRealRun cancels an actual long engine run and requires the
// cooperative hook to stop it promptly.
func TestCancelRealRun(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gamess"},
		Schemes: []string{"pipeline"}, Instructions: 500_000_000, NoTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 30*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s after cancelling a live run", st)
	}
	if j.Result() != nil {
		t.Fatal("cancelled job carries a result")
	}
}

// TestCancelQueued cancels a job before any worker picks it up.
func TestCancelQueued(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		<-gate
		return nil, errors.New("should not matter")
	}
	blocker, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued job state %s after cancel", st)
	}
	close(gate)
	// The worker must skip the cancelled job without running it, and
	// still report it finished.
	w.wait(t, queued, 10*time.Second)
	_ = blocker
	if err := s.Cancel("nonesuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

// TestQueueFull checks load shedding: submissions beyond the queue
// bound are rejected immediately, and capacity frees as jobs drain.
func TestQueueFull(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		select {
		case <-release:
			return nil, errors.New("fail fast")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// The worker takes the first job; wait until it has actually left
	// the queue, then two more submissions fill the bound exactly.
	first, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for first.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued")
		}
		time.Sleep(time.Millisecond)
	}
	jobs := []*Job{first}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(sweepSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if _, err := s.Submit(sweepSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	close(release)
	for _, j := range jobs {
		w.wait(t, j, 10*time.Second)
	}
	// Capacity is back: a fresh submission is accepted.
	if _, err := s.Submit(sweepSpec()); err != nil {
		t.Fatalf("submit after drain of backlog: %v", err)
	}
}

// TestServiceMetrics checks the service instruments itself into the
// registry it is handed: the queue gauges render.
func TestServiceMetrics(t *testing.T) {
	reg := metrics.New()
	s, w := newTestService(t, Config{Workers: 1, Metrics: reg})
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		return &registry.JobResult{Experiment: &registry.ExperimentResult{ID: "x", Table: "t"}}, nil
	}
	j, err := s.Submit(Spec{Kind: KindExperiment, Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 10*time.Second)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"plp_jobs_queue_depth 0", "plp_jobs_queue_capacity 16"} {
		if !strings.Contains(b.String(), series) {
			t.Errorf("exposition missing %q:\n%s", series, b.String())
		}
	}
}

// TestNonTransientNoRetry checks a failing job runs once and fails
// with its error.
func TestNonTransientNoRetry(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	var calls int
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		calls++
		return nil, errors.New("deterministic failure")
	}
	j, err := s.Submit(Spec{Kind: KindExperiment, Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 10*time.Second)
	if st := j.State(); st != StateFailed || calls != 1 {
		t.Fatalf("state %s after %d calls", st, calls)
	}
	if msg := j.Status(false).Error; msg != "deterministic failure" {
		t.Fatalf("error message %q", msg)
	}
}

// TestTimeout checks the per-job deadline fires and reports failed.
func TestTimeout(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	s.runJob = block()
	j, err := s.Submit(Spec{Kind: KindExperiment, Experiment: "fig8", TimeoutSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 10*time.Second)
	if st := j.State(); st != StateFailed {
		t.Fatalf("state %s after deadline", st)
	}
	if msg := j.Status(false).Error; msg == "" {
		t.Fatal("timed-out job has no error message")
	}
}

// TestPanicRecovery checks a panicking job fails cleanly without
// taking its worker down.
func TestPanicRecovery(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	var calls int
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		calls++
		if calls == 1 {
			panic("boom")
		}
		return &registry.JobResult{Experiment: &registry.ExperimentResult{ID: "x", Table: "t"}}, nil
	}
	j1, err := s.Submit(Spec{Kind: KindExperiment, Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j1, 10*time.Second)
	if st := j1.State(); st != StateFailed {
		t.Fatalf("panicked job state %s", st)
	}
	// The worker survived: the next job runs.
	j2, err := s.Submit(Spec{Kind: KindExperiment, Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j2, 10*time.Second)
	if st := j2.State(); st != StateSucceeded {
		t.Fatalf("post-panic job state %s", st)
	}
}

// TestDrain checks graceful shutdown: intake closes, the backlog
// completes, Drain returns.
func TestDrain(t *testing.T) {
	w := newWatcher()
	s := New(Config{Workers: 2, QueueDepth: 8, OnFinish: w.onFinish})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gamess"},
			Schemes: []string{"pipeline"}, Instructions: 40_000, NoTelemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cut, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(cut) != 0 {
		t.Fatalf("clean drain cut jobs short: %v", cut)
	}
	for _, j := range jobs {
		if st := j.State(); st != StateSucceeded {
			t.Fatalf("job %s state %s after drain", j.ID(), st)
		}
	}
	if _, err := s.Submit(sweepSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v", err)
	}
	// Drain again is a no-op returning immediately.
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDrainDeadlineCancels checks an expiring drain context cancels
// still-running jobs instead of hanging.
func TestDrainDeadlineCancels(t *testing.T) {
	w := newWatcher()
	s := New(Config{Workers: 1, OnFinish: w.onFinish})
	s.runJob = block()
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cut, err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v", err)
	}
	if len(cut) != 1 || cut[0] != j.ID() {
		t.Fatalf("drain reported cut jobs %v, want [%s]", cut, j.ID())
	}
	w.wait(t, j, 10*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("job state %s after forced drain", st)
	}
}

// TestConcurrentJobs pushes 8 concurrent jobs (some cancelled
// mid-flight) through a 4-worker service under -race.
func TestConcurrentJobs(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 4, QueueDepth: 16, RunParallel: 1})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gamess"},
			Schemes: []string{"pipeline", "o3"}, Instructions: 150_000})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	// Poll statuses concurrently while the jobs run — the reader path
	// HTTP handlers use, exercised under -race.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, j := range s.List(0) {
					_ = j.Status(true)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Cancel two of the later jobs while the fleet runs.
	_ = s.Cancel(jobs[6].ID())
	_ = s.Cancel(jobs[7].ID())
	for _, j := range jobs {
		w.wait(t, j, 120*time.Second)
	}
	close(stop)
	pollers.Wait()
	for i, j := range jobs {
		st := j.State()
		if !st.Terminal() {
			t.Fatalf("job %d state %s", i, st)
		}
		if st == StateSucceeded {
			if res := j.Result(); res == nil || res.Sweep == nil || len(res.Sweep.Runs) != 2 {
				t.Fatalf("job %d succeeded with bad result", i)
			}
		}
	}
	if jobs[0].State() != StateSucceeded {
		t.Fatalf("first job state %s", jobs[0].State())
	}
	for _, i := range []int{6, 7} {
		if st := jobs[i].State(); st != StateCanceled && st != StateSucceeded {
			t.Fatalf("cancelled job %d state %s", i, st)
		}
	}
}

// TestStatusProgress checks sweep progress counters and live telemetry
// snapshots appear in Status.
func TestStatusProgress(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gamess"},
		Schemes: []string{"pipeline"}, Instructions: 40_000, Interval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(false); st.TotalRuns != 1 {
		t.Fatalf("totalRuns = %d, want 1", st.TotalRuns)
	}
	w.wait(t, j, 60*time.Second)
	st := j.Status(true)
	if st.StartedRuns != 1 || len(st.Runs) != 1 {
		t.Fatalf("progress: started %d, runs %d", st.StartedRuns, len(st.Runs))
	}
	rp := st.Runs[0]
	if rp.Scheme != "pipeline" || rp.Bench != "gamess" {
		t.Fatalf("run progress identity: %+v", rp)
	}
	if rp.Windows == 0 || rp.Telemetry == nil {
		t.Fatalf("run progress has no telemetry: %+v", rp)
	}
	if rp.Persists == 0 {
		t.Fatal("run progress persists = 0")
	}
}
