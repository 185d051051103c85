package main

import (
	"net/http"
	"testing"

	"plp/internal/jobs"
)

// FuzzJobSpec posts arbitrary bodies to /jobs. Every response is 202,
// 400 or 429, never a 5xx, and the handler never panics: a spec
// Spec.Validate accepts must be one the service can run. Each accepted
// job is cancelled at once, so iterations stay short. The corpus
// starts from every spec the server tests post, valid and invalid.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []string{
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":200000,"interval":1000}`,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":200000,"noTelemetry":true}`,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":500000000,"noTelemetry":true}`,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline"],"instructions":40000,"noTelemetry":true}`,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline","o3"],"instructions":150000}`,
		`{"kind":"sweep","benches":["gamess"],"schemes":["pipeline","sp"],"instructions":200000,"warmup":100000,"noTelemetry":true}`,
		`{"kind":"distsweep","benches":["gamess","gcc"],"instructions":40000,"noTelemetry":true}`,
		`not json`,
		`{"kind":"bogus"}`,
		`{"kind":"sweep","benches":["nonesuch"]}`,
		`{"kind":"sweep","unknownField":1}`,
		`{"kind":"experiment"}`,
	} {
		f.Add([]byte(spec))
	}
	ts, _ := newTestServer(f, jobs.Config{Workers: 1, QueueDepth: 4, RunParallel: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, st := postJob(t, ts, string(body))
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("spec %q: status %d, want 202, 400 or 429", body, resp.StatusCode)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// 409: the job finished before the cancel reached it.
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusConflict {
			t.Fatalf("spec %q: cancel status %d, want 202 or 409", body, resp.StatusCode)
		}
	})
}
