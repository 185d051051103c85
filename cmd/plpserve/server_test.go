package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"plp/internal/jobs"
	"plp/internal/registry"
)

func newTestServer(t testing.TB, cfg jobs.Config) (*httptest.Server, *jobs.Service) {
	t.Helper()
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, _ = srv.svc.Drain(ctx)
	})
	return ts, srv.svc
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (*http.Response, jobs.Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle drives the full submit -> poll -> result flow over
// HTTP and checks the result parses as a registry job result.
func TestJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	resp, st := postJob(t, ts,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":200000,"interval":1000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location %q for job %s", loc, st.ID)
	}
	if st.State != jobs.StateQueued && st.State != jobs.StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}

	// Result before completion is a 409.
	if r, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result"); err != nil {
		t.Fatal(err)
	} else {
		if r.StatusCode != http.StatusConflict && r.StatusCode != http.StatusOK {
			t.Fatalf("early result status %d", r.StatusCode)
		}
		r.Body.Close()
	}

	final := waitState(t, ts, st.ID, 60*time.Second)
	if final.State != jobs.StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.TotalRuns != 1 || final.StartedRuns != 1 || len(final.Runs) != 1 {
		t.Fatalf("progress counters: %+v", final)
	}

	// Status with telemetry detail embeds the series.
	r, err := http.Get(ts.URL + "/jobs/" + st.ID + "?telemetry=1")
	if err != nil {
		t.Fatal(err)
	}
	var detailed jobs.Status
	if err := json.NewDecoder(r.Body).Decode(&detailed); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(detailed.Runs) != 1 || detailed.Runs[0].Telemetry == nil {
		t.Fatal("telemetry=1 status has no embedded series")
	}

	r, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", r.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	res, err := registry.UnmarshalJobResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || len(res.Sweep.Runs) != 1 || res.Sweep.Runs[0].Cycles == 0 {
		t.Fatalf("result sweep malformed: %+v", res.Sweep)
	}

	// Only the job API serves runs: the live series is
	// /jobs/{id}?telemetry=1 and the counters are on /metrics.
	for _, path := range []string{"/", "/runs", "/timeseries?scheme=pipeline&bench=gamess"} {
		r, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, r.StatusCode)
		}
	}
}

// TestJobValidation maps bad specs to 400.
func TestJobValidation(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	for _, body := range []string{
		`not json`,
		`{"kind":"bogus"}`,
		`{"kind":"sweep","benches":["nonesuch"]}`,
		`{"kind":"sweep","unknownField":1}`,
		`{"kind":"experiment"}`,
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if r, err := http.Get(ts.URL + "/jobs/nonesuch"); err != nil {
		t.Fatal(err)
	} else {
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status %d", r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestJobCancelMidRun submits a long job and cancels it over HTTP.
func TestJobCancelMidRun(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	_, st := postJob(t, ts,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":500000000,"noTelemetry":true}`)
	// Wait for the job to actually be running.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, st.ID).State == jobs.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	resp.Body.Close()
	final := waitState(t, ts, st.ID, 30*time.Second)
	if final.State != jobs.StateCanceled {
		t.Fatalf("state %s after cancel", final.State)
	}
	// Result of a canceled job is a 409.
	r, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("canceled result status %d", r.StatusCode)
	}
	r.Body.Close()
	// Cancelling a finished (succeeded/failed) job is a 409; cancelling
	// an unknown one a 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/nonesuch", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQueueFull429 fills the queue and expects 429 with Retry-After.
func TestQueueFull429(t *testing.T) {
	ts, svc := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 2})
	// One long job occupies the worker; wait until it leaves the queue
	// so the depth-2 bound is then filled exactly by two more.
	_, first := postJob(t, ts,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":500000000,"noTelemetry":true}`)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, first.ID).State == jobs.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	small := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":200000,"noTelemetry":true}`
	for i := 0; i < 2; i++ {
		resp, _ := postJob(t, ts, small)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ := postJob(t, ts, small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Free the worker so cleanup's drain is quick.
	if err := svc.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobsHTTP pushes 8 concurrent jobs through the API,
// cancelling some mid-flight, and then drains gracefully — the
// acceptance scenario, run under -race.
func TestConcurrentJobsHTTP(t *testing.T) {
	ts, svc := newTestServer(t, jobs.Config{Workers: 4, QueueDepth: 16, RunParallel: 1})
	spec := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline","o3"],"instructions":150000}`
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		resp, st := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	// Cancel the last two while the fleet runs.
	for _, id := range ids[6:] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	succeeded := 0
	for _, id := range ids {
		st := waitState(t, ts, id, 120*time.Second)
		if st.State == jobs.StateSucceeded {
			succeeded++
			r, err := http.Get(ts.URL + "/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			if r.StatusCode != http.StatusOK {
				t.Fatalf("job %s result status %d", id, r.StatusCode)
			}
			r.Body.Close()
		}
	}
	if succeeded < 6 {
		t.Fatalf("only %d of 8 jobs succeeded", succeeded)
	}
	// GET /jobs lists all eight.
	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(listing.Jobs) != 8 {
		t.Fatalf("listing has %d jobs", len(listing.Jobs))
	}

	// Graceful drain: intake refuses with 503, backlog completes.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, err := svc.Drain(ctx)
		drainDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("during drain: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never refused intake")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range svc.List(0) {
		if !j.State().Terminal() {
			t.Fatalf("job %s not terminal after drain", j.ID())
		}
	}
}

// TestHealthz checks liveness.
func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
	var body map[string]bool
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body["ok"] {
		t.Fatal("healthz not ok")
	}
}
