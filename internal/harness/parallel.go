package harness

import (
	"slices"
	"sync"

	"plp/internal/engine"
	"plp/internal/sim"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// parallel runs fn once per profile through the shared Fan pool.
// Results are communicated through the index: callers write into
// pre-sized slices, so table assembly stays in benchmark order
// regardless of completion order.
func (r *runner) parallel(profs []trace.Profile, fn func(i int, p trace.Profile)) {
	FanProbe(len(profs), r.o.Parallel, r.o.Probe, func(i int) { fn(i, profs[i]) })
}

// engineRun/engineResume indirect the engine entry points so tests
// can count how many simulations actually execute (baseline dedup,
// memo hits) and which path served them.
var (
	engineRun    = engine.Run
	engineResume = (*engine.Checkpoint).Resume
)

// idleArenas lends engine arenas to runs, so a sweep's big hot-path
// buffers (write-merge table, epoch set, BMT path table — ~100MB each)
// and its caches allocate once per worker instead of once per run, and
// the schemes a worker runs on one benchmark share one recording of
// its stream. It holds every arena no run is using, oldest release
// first, so it grows only to the largest number of runs that were ever
// in flight at once. Results are bit-identical whichever arena a run
// gets.
type idleArenas struct {
	mu   sync.Mutex
	idle []*engine.Arena
}

// arenas is the process's one idle list, shared by every runner, as
// the sync.Pool before it was: a job service runs one sweep per job,
// and its arenas must outlive each sweep.
var arenas idleArenas

// get takes the idle arena that holds p's recording; if none does,
// the one idle longest; if none is idle, a new one.
func (l *idleArenas) get(p trace.Profile) *engine.Arena {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) == 0 {
		return engine.NewArena()
	}
	i := slices.IndexFunc(l.idle, func(a *engine.Arena) bool { return a.Holds(p) })
	if i < 0 {
		i = 0
	}
	a := l.idle[i]
	l.idle = slices.Delete(l.idle, i, i+1)
	return a
}

// put returns an arena its run has finished with.
func (l *idleArenas) put(a *engine.Arena) {
	l.mu.Lock()
	l.idle = append(l.idle, a)
	l.mu.Unlock()
}

// runPooled executes one simulation with a pooled arena attached, so
// it reads its stream from the arena's recording.
func runPooled(cfg engine.Config, p trace.Profile) engine.Result {
	ar := arenas.get(p)
	cfg.Arena = ar
	res := engineRun(cfg, p)
	arenas.put(ar)
	return res
}

// cold executes one simulation without consulting the result memo. A
// run with a warm-up, under a memo, resumes its benchmark's shared
// warm-up checkpoint, built over the runner's trace store's recording
// of the stream; every other run reads its stream from an arena's
// recording. Both are bit-identical to an uninterrupted run
// (equivalence-pinned).
func (r *runner) cold(cfg engine.Config, p trace.Profile) engine.Result {
	n := cfg.Normalized()
	if r.o.Memo != nil && n.Warmup > 0 {
		ck := r.o.Memo.Checkpoint(cfg, p, func() *trace.Recording {
			return r.o.Traces.Get(p, n.Instructions+n.Warmup)
		})
		ar := arenas.get(p)
		cfg.Arena = ar
		res, err := engineResume(ck, cfg)
		arenas.put(ar)
		if err == nil {
			return res
		}
		// Resume refuses only a config whose warm-up projection differs
		// from the checkpoint's (key drift); such a run falls back to an
		// uncheckpointed run rather than failing the sweep. The
		// checkpoint key tests keep this path unreachable for the
		// runner's own configs.
	}
	return runPooled(cfg, p)
}

// run executes one simulation through the full memoization stack.
// Every harness driver routes its engine calls through here.
func (r *runner) run(cfg engine.Config, p trace.Profile) engine.Result {
	res, _, _ := r.runSeries(cfg, p, false, 0, nil)
	return res
}

// runSeries is run for callers that also want the run's telemetry
// series: sampled selects sampling, interval the window width, and
// observe (optional) receives the live sampler just before a cold run
// starts, or nil once a memo hit has served the run — there is no live
// sampler then. hit reports whether the result came from the memo. The
// sampler is created inside the cold path (not by the caller) so that
// a memoized run reuses the stored series instead of leaving an
// externally owned sampler empty.
func (r *runner) runSeries(cfg engine.Config, p trace.Profile, sampled bool, interval sim.Cycle, observe func(*telemetry.Sampler)) (engine.Result, *telemetry.Series, bool) {
	exec := func() (engine.Result, *telemetry.Series, bool) {
		c := cfg
		var sampler *telemetry.Sampler
		if sampled {
			sampler = telemetry.NewSampler(interval, 0, engine.ComponentLabels())
			c.Observer = sampler
		}
		if observe != nil {
			observe(sampler)
		}
		res := r.cold(c, p)
		var series *telemetry.Series
		if sampler != nil {
			snap := sampler.Snapshot()
			series = &snap
		}
		return res, series, c.Cancel == nil || c.Cancel.Err() == nil
	}
	if r.o.Memo == nil {
		res, series, _ := exec()
		return res, series, false
	}
	key, ok := memoKeyOf(cfg, p.Name, p.Seed)
	if !ok {
		res, series, _ := exec()
		return res, series, false
	}
	key.Sampled, key.Interval = sampled, interval
	res, series, hit := r.o.Memo.Run(key, exec)
	if hit && observe != nil {
		observe(nil)
	}
	return res, series, hit
}

// baseEntry is one baseline cache slot; its once guarantees the run
// happens exactly once even when many workers want it simultaneously.
type baseEntry struct {
	once sync.Once
	res  engine.Result
}

// baseline returns the cached secure_WB run for p, computing it on
// first use. Safe for concurrent callers: simultaneous first users of
// a key share a single computation instead of each running their own
// (the result was deterministic either way, but a recomputation wastes
// a worker for the whole baseline run).
func (r *runner) baseline(p trace.Profile) engine.Result {
	key := p.Name
	if r.o.FullMemory {
		key += "|full"
	}
	r.mu.Lock()
	e, ok := r.bases[key]
	if !ok {
		e = &baseEntry{}
		r.bases[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.res = r.run(r.cfg(engine.SchemeSecureWB), p)
	})
	return e.res
}
