package jobs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"plp/internal/metrics"
	"plp/internal/obs"
	"plp/internal/registry"
)

// TestJobSpanTree runs a real (small) sweep through a traced service
// and checks the span tree has the job → sweep-point → engine-run
// shape with the lifecycle events in order, and that the lifecycle log
// lines carry the job and trace IDs.
func TestJobSpanTree(t *testing.T) {
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	tr := obs.New(obs.Config{})
	s, w := newTestService(t, Config{Workers: 1, Tracer: tr, Log: log})
	j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gamess"},
		Schemes: []string{"pipeline", "o3"}, Instructions: 40_000, NoTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 60*time.Second)
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("job state %s", st)
	}

	tree, ok := tr.Tree(j.ID())
	if !ok {
		t.Fatalf("no trace stored for %s", j.ID())
	}
	if tree.Name != "job" || tree.Attrs["kind"] != string(KindSweep) {
		t.Fatalf("root span: %+v", tree)
	}
	if tree.End == nil {
		t.Fatal("root span not ended at job finish")
	}
	var events []string
	for _, e := range tree.Events {
		events = append(events, e.Name)
	}
	if want := []string{"submit", "dequeue", "finish"}; strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("root events %v, want %v", events, want)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("job has %d sweep-points, want 2", len(tree.Children))
	}
	for _, sp := range tree.Children {
		if sp.Name != "sweep-point" || sp.Attrs["bench"] != "gamess" {
			t.Fatalf("sweep-point span: %+v", sp)
		}
		if sp.Attrs["cycles"] == "" || sp.Attrs["cycles"] == "0" {
			t.Fatalf("sweep-point missing cycles attr: %+v", sp.Attrs)
		}
		if len(sp.Children) != 1 || sp.Children[0].Name != "engine-run" {
			t.Fatalf("sweep-point children: %+v", sp.Children)
		}
	}
	// The status carries the correlating trace ID.
	if got := j.Status(false).TraceID; got != tree.TraceID {
		t.Fatalf("status trace ID %q, tree %q", got, tree.TraceID)
	}
	out := logBuf.String()
	for _, want := range []string{"msg=submit", "msg=dequeue", "msg=finish",
		"job=" + j.ID(), "trace=" + tree.TraceID} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestSubmitTracedParent checks an inbound trace context (the parsed
// traceparent) flows into the job's root span.
func TestSubmitTracedParent(t *testing.T) {
	tr := obs.New(obs.Config{})
	s, w := newTestService(t, Config{Workers: 1, Tracer: tr})
	parent, ok := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("reference traceparent did not parse")
	}
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		return &registry.JobResult{Experiment: &registry.ExperimentResult{ID: "x", Table: "t"}}, nil
	}
	j, err := s.SubmitTraced(Spec{Kind: KindExperiment, Experiment: "fig8"}, parent)
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 10*time.Second)
	if got := j.TraceContext().TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("job trace ID %s did not adopt the inbound parent", got)
	}
	tree, _ := tr.Tree(j.ID())
	if tree.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("root parent span %q", tree.ParentSpanID)
	}
}

// TestListSortedAndLimited pins satellite 1: List returns jobs in
// submit order and a positive limit keeps the most recent.
func TestListSortedAndLimited(t *testing.T) {
	s, _ := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		<-gate
		return nil, ctx.Err()
	}
	defer close(gate)
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(sweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	all := s.List(0)
	if len(all) != 5 {
		t.Fatalf("List(0) returned %d jobs", len(all))
	}
	for i, j := range all {
		if j.ID() != ids[i] {
			t.Fatalf("List(0)[%d] = %s, want %s (submit order)", i, j.ID(), ids[i])
		}
	}
	last2 := s.List(2)
	if len(last2) != 2 || last2[0].ID() != ids[3] || last2[1].ID() != ids[4] {
		got := []string{}
		for _, j := range last2 {
			got = append(got, j.ID())
		}
		t.Fatalf("List(2) = %v, want [%s %s]", got, ids[3], ids[4])
	}
	if n := len(s.List(100)); n != 5 {
		t.Fatalf("List(100) returned %d jobs", n)
	}
}

// TestSLOInstruments checks the shed and canceled burn counters and
// the queue-wait/duration summaries land in the registry exposition.
func TestSLOInstruments(t *testing.T) {
	reg := metrics.New()
	s, w := newTestService(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg})
	release := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) (*registry.JobResult, error) {
		select {
		case <-release:
			return &registry.JobResult{Experiment: &registry.ExperimentResult{ID: "x", Table: "t"}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	spec := Spec{Kind: KindExperiment, Experiment: "fig8"}
	first, err := s.Submit(spec)
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
	// Fill the queue, then shed one.
	queued, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := reg.Counter("plp_jobs_shed_total", "").Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// Cancel the queued job: the canceled counter moves exactly once
	// even though Cancel is called twice (idempotent).
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	w.wait(t, first, 10*time.Second)
	w.wait(t, queued, 10*time.Second)
	if got := reg.Counter("plp_jobs_canceled_total", "").Value(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"plp_jobs_shed_total 1",
		"plp_jobs_canceled_total 1",
		`plp_jobs_queue_wait_microseconds{quantile="0.5"}`,
		`plp_jobs_duration_milliseconds{quantile="0.99"}`,
		"plp_jobs_duration_milliseconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestCanceledCounterRunningOnce checks a running job's cancellation
// also moves the canceled counter exactly once (the other increment
// site, in finish).
func TestCanceledCounterRunningOnce(t *testing.T) {
	reg := metrics.New()
	s, w := newTestService(t, Config{Workers: 1, Metrics: reg})
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
	if err := s.Cancel(j.ID()); err != nil { // idempotent second cancel
		t.Fatal(err)
	}
	w.wait(t, j, 10*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s", st)
	}
	if got := reg.Counter("plp_jobs_canceled_total", "").Value(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// TestUntracedUnchanged pins the off path: no tracer, no logger — no
// trace appears anywhere, statuses carry no trace ID, and the sweep
// still succeeds (bit-identical results are pinned separately by
// TestSweepJobEquivalence, which also runs untraced).
func TestUntracedUnchanged(t *testing.T) {
	s, w := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	w.wait(t, j, 60*time.Second)
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("job state %s", st)
	}
	if got := j.Status(false).TraceID; got != "" {
		t.Fatalf("untraced job reports trace ID %q", got)
	}
	if sc := j.TraceContext(); sc.Valid() {
		t.Fatalf("untraced job has a valid span context: %+v", sc)
	}
}

// TestTracedSweepEquivalence checks tracing is observational: the
// same sweep traced and untraced produces identical cycle counts.
func TestTracedSweepEquivalence(t *testing.T) {
	run := func(tr *obs.Tracer) map[string]uint64 {
		s, w := newTestService(t, Config{Workers: 1, Tracer: tr})
		j, err := s.Submit(Spec{Kind: KindSweep, Benches: []string{"gcc"},
			Schemes: []string{"pipeline", "secure_WB"}, Instructions: 40_000, NoTelemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		w.wait(t, j, 60*time.Second)
		res := j.Result()
		if res == nil || res.Sweep == nil {
			t.Fatalf("job %s finished %s without a sweep result", j.ID(), j.State())
		}
		out := map[string]uint64{}
		for _, r := range res.Sweep.Runs {
			out[r.Key()] = r.Cycles
		}
		return out
	}
	traced := run(obs.New(obs.Config{}))
	untraced := run(nil)
	if len(traced) != len(untraced) || len(traced) == 0 {
		t.Fatalf("run counts differ: %d traced, %d untraced", len(traced), len(untraced))
	}
	for k, c := range traced {
		if untraced[k] != c {
			t.Errorf("%s: traced %d cycles, untraced %d", k, c, untraced[k])
		}
	}
}
