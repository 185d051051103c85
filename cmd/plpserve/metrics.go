package main

import (
	"plp/internal/harness"
	"plp/internal/jobs"
	"plp/internal/metrics"
)

// serverMetrics is one server instance's observability surface: a
// private metrics.Registry plus the instruments the HTTP layer and the
// job-finish hook increment. Every counter here is per-instance state,
// so a second server in the same process (tests, embedding) neither
// shares nor double-counts them.
type serverMetrics struct {
	reg *metrics.Registry

	runsStarted   *metrics.Counter
	runsCompleted *metrics.Counter
	sweepsDone    *metrics.Counter
	jobsSubmitted *metrics.Counter
	jobsRejected  *metrics.Counter

	// runsByScheme splits completed runs per persist scheme.
	runsByScheme *metrics.CounterVec
	// persistLatency exposes each scheme's latest completed run's
	// persist-latency quantiles (simulated cycles).
	persistLatency *metrics.SummaryVec
}

func newServerMetrics() *serverMetrics {
	reg := metrics.New()
	return &serverMetrics{
		reg: reg,
		runsStarted: reg.Counter("plp_runs_started_total",
			"Engine runs started by finished jobs."),
		runsCompleted: reg.Counter("plp_runs_completed_total",
			"Engine runs finished with a recorded result."),
		sweepsDone: reg.Counter("plp_sweeps_completed_total",
			"Sweep jobs that produced a result."),
		jobsSubmitted: reg.Counter("plp_jobs_submitted_total",
			"Jobs accepted by POST /jobs."),
		jobsRejected: reg.Counter("plp_jobs_rejected_total",
			"Submissions rejected with 429 (queue full)."),
		runsByScheme: reg.CounterVec("plp_runs_total",
			"Completed engine runs by persist scheme.", "scheme"),
		persistLatency: reg.SummaryVec("plp_persist_latency_cycles",
			"Persist latency of each scheme's latest completed run (simulated cycles).",
			"scheme"),
	}
}

// finish is wired to jobs.Config.OnFinish: it counts a finished job's
// started runs and, for a succeeded sweep, its completed runs per
// scheme and their persist latencies.
func (m *serverMetrics) finish(j *jobs.Job) {
	m.runsStarted.Add(uint64(j.Status(false).StartedRuns))
	res := j.Result()
	if res == nil || res.Sweep == nil {
		return
	}
	for i := range res.Sweep.Runs {
		r := &res.Sweep.Runs[i]
		m.runsCompleted.Inc()
		m.runsByScheme.With(r.Scheme).Inc()
		m.persistLatency.With(r.Scheme).Set(r.PersistLatency)
	}
	m.sweepsDone.Inc()
}

// bindMemo exposes the sweep-point memo's live counters on the
// instance's exposition. GaugeFunc reads the stats snapshot at scrape
// time, so the series track the memo without any push path.
func (m *serverMetrics) bindMemo(memo *harness.Memo) {
	stat := func(f func(harness.MemoStats) float64) func() float64 {
		return func() float64 { return f(memo.Stats()) }
	}
	m.reg.GaugeFunc("plp_memo_hits_total",
		"Sweep points served from the shared result memo.",
		stat(func(s harness.MemoStats) float64 { return float64(s.Hits) }))
	m.reg.GaugeFunc("plp_memo_misses_total",
		"Sweep points that executed a simulation (memo misses).",
		stat(func(s harness.MemoStats) float64 { return float64(s.Misses) }))
	m.reg.GaugeFunc("plp_memo_evictions_total",
		"Memoized results dropped by the byte bound.",
		stat(func(s harness.MemoStats) float64 { return float64(s.Evictions) }))
	m.reg.GaugeFunc("plp_memo_bytes",
		"Resident bytes of memoized results and warm-up checkpoints.",
		stat(func(s harness.MemoStats) float64 { return float64(s.Bytes) }))
	m.reg.GaugeFunc("plp_memo_entries",
		"Resident memoized results.",
		stat(func(s harness.MemoStats) float64 { return float64(s.Entries) }))
	m.reg.GaugeFunc("plp_memo_checkpoint_hits_total",
		"Runs resumed from a stored warm-up checkpoint.",
		stat(func(s harness.MemoStats) float64 { return float64(s.CheckpointHits) }))
	m.reg.GaugeFunc("plp_memo_checkpoint_misses_total",
		"Warm-up checkpoints built.",
		stat(func(s harness.MemoStats) float64 { return float64(s.CheckpointMisses) }))
}

// bindPoolProbe exposes the harness fan-out pools' occupancy: queue
// depth and the high-water worker occupancy, for asserting the pools
// never starve under load.
func (m *serverMetrics) bindPoolProbe(probe *harness.PoolProbe) {
	m.reg.GaugeFunc("plp_pool_queued",
		"Fan-out work items waiting for a worker across all jobs.",
		func() float64 { return float64(probe.Queued()) })
	m.reg.GaugeFunc("plp_pool_running",
		"Fan-out work items executing right now across all jobs.",
		func() float64 { return float64(probe.Running()) })
	m.reg.GaugeFunc("plp_pool_completed_total",
		"Fan-out work items completed across all jobs.",
		func() float64 { return float64(probe.Completed()) })
	m.reg.GaugeFunc("plp_pool_max_running",
		"High-water concurrent fan-out occupancy (pool width when saturated).",
		func() float64 { return float64(probe.MaxRunning()) })
}
