package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plp/internal/fabric"
	"plp/internal/jobs"
	"plp/internal/registry"
)

// pollInterval is how often readiness and job status are polled. Job
// latency is taken from the server's finishedAt stamp, so the interval
// never adds to it.
const pollInterval = 5 * time.Millisecond

// server is one running plpserve process.
type server struct {
	c    *child
	addr string
	errs *tail
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// startServer starts plpserve with env added to the benchmark's own
// environment and waits for the address it prints.
func startServer(ctx context.Context, sup *supervisor, bin string, env []string, args ...string) (*server, error) {
	w := newAddrWatch()
	s := &server{errs: &tail{}}
	cmd := exec.Command(filepath.Join(bin, "plpserve"), args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = w, s.errs
	c, err := sup.start(cmd)
	if err != nil {
		return nil, err
	}
	s.c = c
	select {
	case s.addr = <-w.addr:
		return s, nil
	case <-c.done:
		return nil, fmt.Errorf("plpserve %v exited before listening (%v): %s", args, c.err, s.errs)
	case <-ctx.Done():
		c.stop()
		return nil, fmt.Errorf("plpserve %v: %w", args, ctx.Err())
	}
}

// cluster is the service under test: one plpserve, or a fabric
// coordinator with its workers.
type cluster struct {
	front   *server   // where clients submit: the server or the coordinator
	workers []*server // fabric workers
}

func (cl *cluster) servers() []*server { return append([]*server{cl.front}, cl.workers...) }

func (cl *cluster) stop() {
	var wg sync.WaitGroup
	for _, s := range cl.servers() {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.c.stop()
		}(s)
	}
	wg.Wait()
}

// startCluster starts the service and returns once it is ready: the
// server answers /readyz with 200 and, on the fabric, the coordinator
// lists both workers as registered.
func startCluster(ctx context.Context, sup *supervisor, hc *http.Client, bin string, onFabric bool) (*cluster, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "16", "-log-level", "off"}
	if onFabric {
		args = append(args, "-coordinator")
	}
	front, err := startServer(ctx, sup, bin, nil, args...)
	if err != nil {
		return nil, err
	}
	cl := &cluster{front: front}
	ready := func() bool {
		_, err := fetch(ctx, hc, http.MethodGet, front.url("/readyz"), nil)
		return err == nil
	}
	if err := poll(ctx, ready); err != nil {
		cl.stop()
		return nil, fmt.Errorf("plpserve never became ready: %w: %s", err, front.errs)
	}
	if !onFabric {
		return cl, nil
	}
	// Each worker gets one core's worth of Go threads, as it would on a
	// host of its own: two workers of two threads each would put twice
	// as many busy threads as the host has cores, and timings would then
	// measure the kernel's scheduler.
	for i := 0; i < workers; i++ {
		w, err := startServer(ctx, sup, bin, []string{"GOMAXPROCS=1"}, "-join", front.addr, "-addr", "127.0.0.1:0", "-log-level", "off")
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.workers = append(cl.workers, w)
	}
	registered := func() bool {
		var st fabric.State
		_, err := fetchJSON(ctx, hc, http.MethodGet, front.url(fabric.PathState), nil, &st)
		return err == nil && len(st.Workers) == workers
	}
	if err := poll(ctx, registered); err != nil {
		cl.stop()
		return nil, fmt.Errorf("fabric workers never registered: %w", err)
	}
	return cl, nil
}

// poll calls cond every pollInterval until it holds or ctx ends.
func poll(ctx context.Context, cond func() bool) error {
	for !cond() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	return nil
}

// fetch sends one request and returns the body of a 2xx response.
func fetch(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// fetchJSON is fetch decoding the response into out.
func fetchJSON(ctx context.Context, hc *http.Client, method, url string, body []byte, out any) (int, error) {
	data, err := fetch(ctx, hc, method, url, body)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return len(data), fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return len(data), nil
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	unit    int
	cold    bool
	class   string // the client and benchmark pair: jobs of one class cost alike
	err     string
	latency time.Duration // POST sent -> finishedAt, plus the result round trip
	submit  time.Duration // POST round trip
	status  []time.Duration
	result  time.Duration // GET result round trip
	bytes   int           // result body size
	// queueWait and exec come from the server's own stamps:
	// startedAt - submittedAt and finishedAt - startedAt.
	queueWait, exec time.Duration
	instr           uint64 // simulated instructions delivered
	points          []point
}

// runJob submits spec as one sweep (or distsweep) job, waits for it,
// fetches its result and checks that every point came back.
func runJob(ctx context.Context, hc *http.Client, base string, kind jobs.Kind, spec jobSpec, unit int) jobRecord {
	rec := jobRecord{unit: unit}
	body, err := json.Marshal(jobs.Spec{Kind: kind, Benches: spec.Benches, Schemes: schemeNames(jobSchemes), Instructions: spec.Instructions})
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	t0 := time.Now()
	var st jobs.Status
	_, err = fetchJSON(ctx, hc, http.MethodPost, base+"/jobs", body, &st)
	rec.submit = time.Since(t0)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			rec.err = ctx.Err().Error()
			return rec
		case <-time.After(pollInterval):
		}
		t := time.Now()
		_, err := fetchJSON(ctx, hc, http.MethodGet, base+"/jobs/"+st.ID, nil, &st)
		rec.status = append(rec.status, time.Since(t))
		if err != nil {
			rec.err = err.Error()
			return rec
		}
	}
	if st.State != jobs.StateSucceeded {
		rec.err = fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error)
		return rec
	}
	t1 := time.Now()
	var res registry.JobResult
	n, err := fetchJSON(ctx, hc, http.MethodGet, base+"/jobs/"+st.ID+"/result", nil, &res)
	rec.result, rec.bytes = time.Since(t1), n
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	started, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		rec.err = fmt.Sprintf("job %s has unreadable stamps %q %q %q", st.ID, st.SubmittedAt, st.StartedAt, st.FinishedAt)
		return rec
	}
	rec.latency = fin.Sub(t0) + rec.result
	rec.queueWait, rec.exec = started.Sub(sub), fin.Sub(started)

	if res.Sweep == nil {
		rec.err = fmt.Sprintf("job %s result has no sweep", st.ID)
		return rec
	}
	want := make(map[string]bool)
	for _, b := range spec.Benches {
		for _, s := range jobSchemes {
			want[pointKey(string(s), b, spec.Instructions)] = true
		}
	}
	for _, r := range res.Sweep.Runs {
		k := pointKey(r.Scheme, r.Bench, r.Instructions)
		if !want[k] {
			rec.err = fmt.Sprintf("job %s returned unrequested point %s", st.ID, k)
			return rec
		}
		delete(want, k)
		rec.instr += r.Instructions
		rec.points = append(rec.points, point{Unit: unit, Key: k, Value: runDigest(r)})
	}
	if len(want) > 0 {
		rec.err = fmt.Sprintf("job %s is missing %d points", st.ID, len(want))
	}
	return rec
}

// runService measures a service workload: set-up repeated, then two
// closed-loop clients each alternating a cold job with the exact
// resubmission of it (a memo job) until the deadline.
func runService(ctx context.Context, sup *supervisor, o options) (*workloadResult, error) {
	onFabric := o.workload == "service-fabric"
	kind := jobs.KindSweep
	if onFabric {
		kind = jobs.KindDistSweep
	}
	// One connection per client; nothing else talks to the service
	// while it is measured.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}, Timeout: time.Minute}
	defer hc.CloseIdleConnections()

	w := &workloadResult{}
	var cl *cluster
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c, err := startCluster(ctx, sup, hc, o.bin, onFabric)
		if err != nil {
			return nil, err
		}
		w.setup = append(w.setup, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			c.stop()
			continue
		}
		cl = c
	}
	defer cl.stop()
	if err := warmUpService(ctx, hc, cl.front.url(""), kind, o); err != nil {
		return nil, err
	}

	start := time.Now()
	records := runClients(ctx, hc, cl.front.url(""), kind, o, start.Add(time.Duration(o.seconds)*time.Second))
	w.elapsed = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Server-side counters and memory peaks, read before shutdown.
	var scrapes []map[string]float64
	var workerKB uint64
	for i, s := range cl.servers() {
		text, err := fetch(ctx, hc, http.MethodGet, s.url("/metrics"), nil)
		if err != nil {
			return nil, err
		}
		scrapes = append(scrapes, parseProm(string(text)))
		hwm, peak, err := procMemory(s.c.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		w.rssKB += hwm
		w.vmKB += peak
		if i > 0 {
			workerKB += hwm
		}
	}
	done := w.addJobs(records)
	w.layer = serviceLayer(scrapes, done)
	if onFabric {
		w.notes = append(w.notes, fmt.Sprintf("fabric.worker_rss_mb %.4g MB (VmHWM summed over %d workers)", float64(workerKB)/1024, len(cl.workers)))
	}
	return w, nil
}

// warmUpService has each client run its warm-up job, cold and then as
// a memo job, before the clock starts: the service's first-use costs
// (heap growth, connections, the workers' first units) then fall
// outside the timed region. The warm-up jobs share no inputs with the
// measured ones.
func warmUpService(ctx context.Context, hc *http.Client, base string, kind jobs.Kind, o options) error {
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := warmUpJob(o.seed, o.scale, c)
			for i := 0; i < 2 && errs[c] == ""; i++ {
				errs[c] = runJob(ctx, hc, base, kind, spec, missingUnit).err
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			return fmt.Errorf("warm-up job: %s", e)
		}
	}
	return nil
}

// runClients runs the closed-loop clients until the deadline: each
// alternates a cold job with its memo resubmission. It returns every
// job they ran.
func runClients(ctx context.Context, hc *http.Client, base string, kind jobs.Kind, o options, deadline time.Time) []jobRecord {
	var (
		mu      sync.Mutex
		records []jobRecord
		units   atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				spec := serviceJob(o.seed, o.scale, c, k)
				for _, cold := range []bool{true, false} {
					rec := runJob(ctx, hc, base, kind, spec, int(units.Add(1)-1))
					rec.cold = cold
					rec.class = fmt.Sprintf("%d/%s", c, strings.Join(spec.Benches, "+"))
					mu.Lock()
					records = append(records, rec)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return records
}

// addJobs folds the clients' job records into w: failures, delivered
// outputs, cold-job latencies as the units, and the report lines on
// the job path. It returns how many jobs succeeded.
func (w *workloadResult) addJobs(records []jobRecord) int {
	w.attempted = len(records)
	w.failed = make(map[int]string)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var memo, submit, status, result, wait, exec []float64
	var kb float64
	done := 0
	for _, r := range records {
		if r.err != "" {
			w.failed[r.unit] = r.err
			continue
		}
		done++
		w.instr += r.instr
		w.points = append(w.points, r.points...)
		if r.cold {
			w.units = append(w.units, ms(r.latency))
			w.unitKeys = append(w.unitKeys, r.class)
			exec = append(exec, ms(r.exec))
		} else {
			memo = append(memo, ms(r.latency))
		}
		submit = append(submit, ms(r.submit))
		for _, d := range r.status {
			status = append(status, ms(d))
		}
		result = append(result, ms(r.result))
		wait = append(wait, ms(r.queueWait))
		kb += float64(r.bytes) / 1024
	}
	w.notes = append(w.notes,
		"memo_job_ms "+summarize(memo).format("ms"),
		fmt.Sprintf("jobs_per_s %.4g (%d jobs in %.2f s)", float64(done)/w.elapsed, done, w.elapsed),
		"plpserve.submit_ms "+summarize(submit).format("ms"),
		"plpserve.status_ms "+summarize(status).format("ms"),
		"plpserve.result_ms "+summarize(result).format("ms"),
		fmt.Sprintf("plpserve.result_kb mean %.4g KB", ratio(kb, float64(done))),
		"jobs.queue_wait_ms "+summarize(wait).format("ms"),
		"jobs.exec_ms (cold) "+summarize(exec).format("ms"),
	)
	return done
}

// serviceLayer computes the memo-stack, queue and fabric metrics from
// every server's /metrics. Counters a server does not export (the
// fabric's, on the local pool) count as zero.
func serviceLayer(scrapes []map[string]float64, jobsDone int) map[string]float64 {
	sum := func(name string) float64 {
		t := 0.0
		for _, m := range scrapes {
			t += m[name]
		}
		return t
	}
	maxOf := func(name string) float64 {
		t := 0.0
		for _, m := range scrapes {
			t = max(t, m[name])
		}
		return t
	}
	hit, miss := sum("plp_memo_hits_total"), sum("plp_memo_misses_total")
	ckHit, ckMiss := sum("plp_memo_checkpoint_hits_total"), sum("plp_memo_checkpoint_misses_total")
	tHit, tMiss := sum("plp_trace_cache_hits_total"), sum("plp_trace_cache_misses_total")
	return map[string]float64{
		"harness.memo_hit_rate":       ratio(hit, hit+miss),
		"harness.checkpoint_hit_rate": ratio(ckHit, ckHit+ckMiss),
		"harness.memo_mb":             sum("plp_memo_bytes") / (1 << 20),
		"trace.store_hit_rate":        ratio(tHit, tHit+tMiss),
		"trace.store_mb":              sum("plp_trace_cache_bytes") / (1 << 20),
		"harness.pool_max_running":    maxOf("plp_pool_max_running"),
		"jobs.shed":                   sum("plp_jobs_shed_total"),
		"fabric.dispatches_per_job":   ratio(sum("plp_fabric_dispatches_total"), float64(jobsDone)),
		"fabric.requeues":             sum("plp_fabric_units_requeued_total"),
		"fabric.steals":               sum("plp_fabric_steals_total"),
		"fabric.duplicates":           sum("plp_fabric_duplicates_discarded_total"),
		"fabric.local_units":          sum("plp_fabric_local_units_total"),
	}
}
