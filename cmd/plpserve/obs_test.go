package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"plp/internal/jobs"
	"plp/internal/obs"
)

// scrapeCounter reads one un-labelled counter's value off /metrics.
func scrapeCounter(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(line, name+" "), 10, 64)
		if err != nil {
			t.Fatalf("bad %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// TestTraceparentRoundTrip pins the acceptance seam: an inbound W3C
// traceparent on POST /jobs comes back on the response and reappears
// as the trace ID of the root span in GET /jobs/{id}/trace.
func TestTraceparentRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1})
	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewBufferString(
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":40000,"noTelemetry":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-"+inTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	outTP := resp.Header.Get(obs.TraceparentHeader)
	if !strings.Contains(outTP, inTrace) {
		t.Fatalf("response traceparent %q does not continue trace %s", outTP, inTrace)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.TraceID != inTrace {
		t.Fatalf("status traceId %q, want %s", st.TraceID, inTrace)
	}

	final := waitState(t, ts, st.ID, 60*time.Second)
	if final.State != jobs.StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	// The finished span tree, nested JSON form.
	r, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", r.StatusCode)
	}
	var tree obs.SpanData
	if err := json.NewDecoder(r.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if tree.TraceID != inTrace {
		t.Fatalf("root span trace ID %s, want inbound %s", tree.TraceID, inTrace)
	}
	if tree.Name != "job" || tree.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("root span: %+v", tree)
	}
	if tree.End == nil || len(tree.Children) == 0 {
		t.Fatalf("root span unfinished or childless: %+v", tree)
	}

	// The same trace as JSONL: one parseable span object per line.
	r, err = http.Get(ts.URL + "/jobs/" + st.ID + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("jsonl trace status %d", r.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl export has %d spans, want 3 (job, sweep-point, engine-run)", len(lines))
	}
	for _, ln := range lines {
		var sd obs.SpanData
		if err := json.Unmarshal([]byte(ln), &sd); err != nil {
			t.Fatalf("bad jsonl line %q: %v", ln, err)
		}
		if sd.TraceID != inTrace {
			t.Fatalf("jsonl span on trace %s, want %s", sd.TraceID, inTrace)
		}
	}

	// Unknown job: 404.
	r, err = http.Get(ts.URL + "/jobs/nonesuch/trace")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestReadyz checks the readiness flip: 200 while serving, 503 with
// draining=true once shutdown starts.
func TestReadyz(t *testing.T) {
	ts, svc := newTestServer(t, jobs.Config{Workers: 1})
	check := func(wantCode int, wantDraining bool) {
		t.Helper()
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != wantCode {
			t.Fatalf("readyz status %d, want %d", r.StatusCode, wantCode)
		}
		var st jobs.Stats
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Draining != wantDraining {
			t.Fatalf("readyz draining=%v, want %v (%+v)", st.Draining, wantDraining, st)
		}
		if st.QueueCapacity == 0 {
			t.Fatalf("readyz reports zero queue capacity: %+v", st)
		}
	}
	check(http.StatusOK, false)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	check(http.StatusServiceUnavailable, true)
}

// TestCancelRaces pins satellite 3: DELETE against queued, running,
// and finished jobs lands each in a terminal state, and the shed/
// cancel counters move exactly once per event.
func TestCancelRaces(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 1})
	del := func(id string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	long := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":500000000,"noTelemetry":true}`
	quick := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":40000,"noTelemetry":true}`

	// One running job (the single worker takes it)...
	_, running := postJob(t, ts, long)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, running.ID).State == jobs.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...one queued job filling the depth-1 queue...
	_, queued := postJob(t, ts, long)
	// ...and one shed with 429.
	resp, _ := postJob(t, ts, long)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	if got := scrapeCounter(t, ts, "plp_jobs_shed_total"); got != 1 {
		t.Fatalf("shed counter %d after one 429, want 1", got)
	}

	// Cancel the queued job: terminal immediately, counter moves once
	// even when the DELETE is repeated.
	if code := del(queued.ID); code != http.StatusAccepted {
		t.Fatalf("cancel queued status %d", code)
	}
	if st := getStatus(t, ts, queued.ID); st.State != jobs.StateCanceled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}
	if code := del(queued.ID); code != http.StatusAccepted {
		t.Fatalf("re-cancel canceled status %d", code)
	}
	if got := scrapeCounter(t, ts, "plp_jobs_canceled_total"); got != 1 {
		t.Fatalf("canceled counter %d after queued cancel, want 1", got)
	}

	// Cancel the running job: cooperative stop, then terminal.
	if code := del(running.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running status %d", code)
	}
	if code := del(running.ID); code != http.StatusAccepted {
		t.Fatalf("re-cancel winding-down status %d", code)
	}
	if st := waitState(t, ts, running.ID, 30*time.Second); st.State != jobs.StateCanceled {
		t.Fatalf("running job state %s after cancel", st.State)
	}
	if got := scrapeCounter(t, ts, "plp_jobs_canceled_total"); got != 2 {
		t.Fatalf("canceled counter %d after running cancel, want 2", got)
	}

	// A finished job refuses with 409 and moves nothing.
	_, done := postJob(t, ts, quick)
	if st := waitState(t, ts, done.ID, 60*time.Second); st.State != jobs.StateSucceeded {
		t.Fatalf("quick job finished %s", st.State)
	}
	if code := del(done.ID); code != http.StatusConflict {
		t.Fatalf("cancel finished status %d, want 409", code)
	}
	if got := scrapeCounter(t, ts, "plp_jobs_canceled_total"); got != 2 {
		t.Fatalf("canceled counter %d after refused cancel, want 2", got)
	}
	if got := scrapeCounter(t, ts, "plp_jobs_shed_total"); got != 1 {
		t.Fatalf("shed counter drifted to %d", got)
	}
}

// TestJobsListLimit pins satellite 1's HTTP face: ?limit=N returns the
// N most recent jobs in submit order; a bad limit is a 400.
func TestJobsListLimit(t *testing.T) {
	ts, svc := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 8})
	quick := `{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":40000,"noTelemetry":true}`
	var ids []string
	for i := 0; i < 3; i++ {
		resp, st := postJob(t, ts, quick)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, ts, id, 60*time.Second)
	}
	list := func(query string) ([]jobs.Status, int) {
		t.Helper()
		r, err := http.Get(ts.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var body struct {
			Jobs []jobs.Status `json:"jobs"`
		}
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return body.Jobs, r.StatusCode
	}
	got, code := list("?limit=2")
	if code != http.StatusOK || len(got) != 2 {
		t.Fatalf("limit=2: status %d, %d jobs", code, len(got))
	}
	if got[0].ID != ids[1] || got[1].ID != ids[2] {
		t.Fatalf("limit=2 returned %s,%s; want %s,%s (most recent, submit order)",
			got[0].ID, got[1].ID, ids[1], ids[2])
	}
	if got, code := list(""); code != http.StatusOK || len(got) != 3 {
		t.Fatalf("default list: status %d, %d jobs", code, len(got))
	}
	if got, code := list("?limit=0"); code != http.StatusOK || len(got) != 3 {
		t.Fatalf("limit=0 (everything): status %d, %d jobs", code, len(got))
	}
	for _, bad := range []string{"?limit=-1", "?limit=abc"} {
		if _, code := list(bad); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, code)
		}
	}
	_ = svc
}
