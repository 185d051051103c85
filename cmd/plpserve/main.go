// Command plpserve is the simulation job service: a JSON HTTP API over
// an asynchronous job queue (internal/jobs) running recording sweeps,
// reproduced experiments, and crash-injection campaigns, with live
// telemetry while the simulators execute — plus Prometheus /metrics
// and pprof at /debug/pprof/ for watching the *simulator process*
// itself.
//
// Job API:
//
//	POST   /jobs              submit a job spec; 202 + Location,
//	                          400 invalid, 429 queue full, 503 draining
//	GET    /jobs              list all jobs with status
//	GET    /jobs/{id}         one job's status (?telemetry=1 embeds series)
//	DELETE /jobs/{id}         cancel; 404 unknown, 409 already finished
//	GET    /jobs/{id}/result  finished payload; 409 while running
//	GET    /jobs/{id}/trace   finished span tree (?format=jsonl for lines)
//	GET    /healthz           liveness
//	GET    /readyz            readiness; 503 once draining
//	GET    /metrics           Prometheus text exposition
//
// Distributed sweep fabric (internal/fabric):
//
//	GET  /version           build fingerprint: module, go version,
//	                        supported scheme set (worker compat check)
//	-coordinator            run the coordinator role; "distsweep" jobs
//	                        shard across joined workers (POST /fabric/
//	                        register|heartbeat, GET /fabric/state)
//	-join host:port         run the worker role against a coordinator
//	                        (serves POST /fabric/run)
//
// SIGTERM/SIGINT drain gracefully: intake stops (new submissions get
// 503), queued and running jobs finish, then the process exits. A
// second signal — or the -drain-timeout deadline — cancels the
// remaining jobs instead of waiting them out.
//
// Usage:
//
//	plpserve -addr :8090
//	curl -s localhost:8090/jobs -d '{"kind":"sweep","benches":["gcc"]}'
//	plpserve -coordinator -addr :8090
//	plpserve -join 127.0.0.1:8090 -addr 127.0.0.1:0 -workers 1   # once per worker
//	curl -s localhost:8090/jobs -d '{"kind":"distsweep","benches":["gcc"]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"plp/internal/fabric"
	"plp/internal/harness"
	"plp/internal/jobs"
	"plp/internal/metrics"
	"plp/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "HTTP listen address")
		mAddr    = flag.String("metrics-addr", "", "serve /metrics on a separate listener (default: /metrics on -addr)")
		workers  = flag.Int("workers", 2, "concurrent jobs")
		queue    = flag.Int("queue", 16, "job queue depth (submissions beyond it get 429)")
		parallel = flag.Int("parallel", 0, "per-job sweep worker goroutines (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "default per-job deadline (0 = unbounded)")
		drainT   = flag.Duration("drain-timeout", 2*time.Minute, "max graceful-drain wait on shutdown")
		memoMB   = flag.Uint64("memo-mb", 512, "sweep-point memo bound in MB shared by all jobs (0 = off)")

		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		logFormat = flag.String("log-format", "text", "structured log format: text or json (stderr)")
		traceCap  = flag.Int("trace-capacity", 0, "finished job traces retained for /jobs/{id}/trace (0 = default 256)")
		traceOut  = flag.String("trace-jsonl", "", "append every finished job's spans to this JSONL file")

		coordRole = flag.Bool("coordinator", false, "run the distributed sweep fabric coordinator: distsweep jobs shard across joined workers")
		join      = flag.String("join", "", "join the fabric coordinator at this host:port as a worker")
		advertise = flag.String("advertise", "", "dial-back host:port a worker advertises to the coordinator (default: the bound -addr with a 127.0.0.1 host)")
	)
	flag.Parse()

	if *join != "" && *coordRole {
		fmt.Fprintln(os.Stderr, "plpserve: -join and -coordinator are exclusive roles")
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plpserve: %v\n", err)
		os.Exit(2)
	}
	obsCfg := obs.Config{Capacity: *traceCap}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plpserve: -trace-jsonl: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		obsCfg.JSONL = f
	}

	// The memo shared by every job this instance runs: repeated sweep
	// points hit it, and every scheme of a warmed sweep resumes one
	// per-benchmark checkpoint. Its counters surface on /metrics.
	var memo *harness.Memo
	if *memoMB > 0 {
		memo = harness.NewMemo(*memoMB << 20)
	}

	probe := &harness.PoolProbe{}
	// stack is this instance's local execution environment, shared by
	// the job service and (per role) the fabric worker or the
	// coordinator's no-workers-left fallback.
	stack := fabric.Stack{Memo: memo, Probe: probe, Parallel: *parallel}

	var mkCoord func(*metrics.Registry) *fabric.Coordinator
	if *coordRole {
		mkCoord = func(reg *metrics.Registry) *fabric.Coordinator {
			return fabric.NewCoordinator(fabric.CoordinatorConfig{
				Local:   stack,
				Metrics: reg,
				Log:     logger,
			})
		}
	}

	api := newServerWithFabric(jobs.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		RunParallel:    *parallel,
		DefaultTimeout: *timeout,
		Memo:           memo,
		Probe:          probe,
		Tracer:         obs.New(obsCfg),
		Log:            logger,
	}, mkCoord)
	svc := api.svc

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Listen explicitly (not ListenAndServe) so `-addr :0` works for
	// scripts and tests: the actually-bound address prints as one
	// parseable `plpserve: addr=<host:port>` line before any request is
	// served, eliminating port-discovery races.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plpserve: %v\n", err)
		os.Exit(1)
	}
	bound := dialableAddr(ln.Addr())
	fmt.Printf("plpserve: addr=%s\n", bound)

	errc := make(chan error, 1)
	if *mAddr != "" {
		// A dedicated scrape listener: the Prometheus exposition stays
		// reachable (and firewallable) separately from the job API.
		mln, err := net.Listen("tcp", *mAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plpserve: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("plpserve: metrics-addr=%s\n", dialableAddr(mln.Addr()))
		mm := http.NewServeMux()
		mm.Handle("GET /metrics", api.m.reg.Handler())
		go func() { errc <- http.Serve(mln, mm) }()
	}

	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = bound
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			Addr:        adv,
			Coordinator: *join,
			Stack:       stack,
			Tracer:      api.tr,
			Log:         logger,
		})
		// Assigned before handler() below builds the mux, so the unit
		// endpoint mounts; the join/heartbeat loop runs until shutdown.
		api.worker = w
		go w.Run(ctx)
		fmt.Printf("plpserve: fabric worker advertising %s to coordinator %s\n", adv, *join)
	}

	srv := &http.Server{Handler: withDebug(api.handler())}
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("plpserve: listening on %s (%d workers, queue %d)\n", bound, *workers, *queue)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "plpserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Println("plpserve: draining (signal again to force exit)")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if cut, err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "plpserve: drain: %v (cancelled %d jobs: %s)\n",
			err, len(cut), strings.Join(cut, ", "))
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "plpserve: shutdown: %v\n", err)
	}
	fmt.Println("plpserve: drained, exiting")
}

// withDebug layers the default mux's pprof endpoints (registered on
// http.DefaultServeMux by the net/http/pprof import) under /debug/
// while everything else goes to the API mux.
func withDebug(api http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/") {
			http.DefaultServeMux.ServeHTTP(w, r)
			return
		}
		api.ServeHTTP(w, r)
	})
}
