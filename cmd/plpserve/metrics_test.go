package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plp/internal/harness"
	"plp/internal/jobs"
	"plp/internal/trace"
)

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var b strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// TestMetricsEndpoint is the exposition smoke: run one sweep job to
// completion, then scrape /metrics and assert every key series the
// service promises — job counters, per-scheme run counts, queue
// gauges, retry counter, and the persist-latency quantiles.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	_, st := postJob(t, ts,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":200000,"noTelemetry":true}`)
	if final := waitState(t, ts, st.ID, 60*time.Second); final.State != jobs.StateSucceeded {
		t.Fatalf("sweep finished %s: %s", final.State, final.Error)
	}
	// OnFinish fires after the terminal state is visible; give the
	// finish hook a moment to land its counters.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(scrape(t, ts), "plp_sweeps_completed_total 1") {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := scrape(t, ts)
	for _, series := range []string{
		"# TYPE plp_jobs_submitted_total counter",
		"plp_jobs_submitted_total 1",
		"plp_jobs_rejected_total 0",
		"plp_jobs_retries_total 0",
		"plp_jobs_queue_depth 0",
		"plp_jobs_queue_capacity 4",
		"plp_runs_started_total 1",
		"plp_runs_completed_total 1",
		"plp_sweeps_completed_total 1",
		`plp_runs_total{scheme="pipeline"} 1`,
		`plp_persist_latency_cycles{scheme="pipeline",quantile="0.5"}`,
		`plp_persist_latency_cycles{scheme="pipeline",quantile="0.99"}`,
		`plp_persist_latency_cycles_count{scheme="pipeline"}`,
	} {
		if !strings.Contains(got, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", got)
	}
}

// TestTwoServersIndependent: two complete server instances coexist in
// one process, and each instance's /metrics counts only its own
// traffic.
func TestTwoServersIndependent(t *testing.T) {
	tsA, _ := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 2})
	tsB, _ := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 2})

	spec := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":200000,"noTelemetry":true}`
	if resp, _ := postJob(t, tsA, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to A: %d", resp.StatusCode)
	}
	a, b := scrape(t, tsA), scrape(t, tsB)
	if !strings.Contains(a, "plp_jobs_submitted_total 1") {
		t.Errorf("server A did not count its submission:\n%s", a)
	}
	if !strings.Contains(b, "plp_jobs_submitted_total 0") {
		t.Errorf("server B's counters bled from A:\n%s", b)
	}
}

// TestMemoMetricsEndpoint: a server with the memoization stack wired
// exposes the memo / trace-cache / pool series, and a repeated sweep
// job is served from the memo (hits > 0, no new misses).
func TestMemoMetricsEndpoint(t *testing.T) {
	memo := harness.NewMemo(0)
	store := trace.NewStore(0)
	ts, _ := newTestServer(t, jobs.Config{
		Workers: 1, QueueDepth: 4,
		Memo: memo, Traces: store, Probe: &harness.PoolProbe{},
	})
	spec := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline","sp"],"instructions":200000,"warmup":100000,"noTelemetry":true}`
	for i := 0; i < 2; i++ {
		_, st := postJob(t, ts, spec)
		if final := waitState(t, ts, st.ID, 60*time.Second); final.State != jobs.StateSucceeded {
			t.Fatalf("sweep %d finished %s: %s", i, final.State, final.Error)
		}
	}
	got := scrape(t, ts)
	for _, series := range []string{
		"plp_memo_hits_total 2",   // second job: both points hit
		"plp_memo_misses_total 2", // first job: both points executed
		"plp_memo_checkpoint_misses_total 1",
		"plp_memo_checkpoint_hits_total 1",
		"plp_trace_cache_misses_total 1",
		"plp_memo_bytes",
		"plp_memo_entries 2",
		"plp_trace_cache_bytes",
		"plp_pool_queued 0",
		"plp_pool_completed_total 2",
		"plp_pool_max_running",
	} {
		if !strings.Contains(got, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	st := memo.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("memo stats %+v, want 2 hits / 2 misses", st)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", got)
	}
}
