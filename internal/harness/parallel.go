package harness

import (
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

// engineRun/engineRunSource/engineResume indirect the engine entry
// points so tests can count how many simulations actually execute
// (baseline dedup, memo hits) and which path served them.
var (
	engineRun       = engine.Run
	engineRunSource = engine.RunSource
	engineResume    = (*engine.Checkpoint).Resume
)

// arenaPool shares engine arenas across the fan-out workers: each run
// borrows one, so a sweep's big hot-path buffers (write-merge table,
// epoch set, BMT path table — ~100MB each) allocate once per worker
// instead of once per run. Results are bit-identical either way.
var arenaPool = sync.Pool{New: func() any { return engine.NewArena() }}

// runPooled executes one simulation with a pooled arena attached.
func runPooled(cfg engine.Config, p trace.Profile) engine.Result {
	ar := arenaPool.Get().(*engine.Arena)
	cfg.Arena = ar
	res := engineRun(cfg, p)
	arenaPool.Put(ar)
	return res
}

// runPooledSource is runPooled over an explicit op source (a trace
// store replay instead of a fresh generator).
func runPooledSource(cfg engine.Config, p trace.Profile, src trace.Source) engine.Result {
	ar := arenaPool.Get().(*engine.Arena)
	cfg.Arena = ar
	res := engineRunSource(cfg, p.Name, p.IPC, src)
	arenaPool.Put(ar)
	return res
}

// cold executes one simulation without consulting the result memo,
// picking the cheapest correct path: resume a shared warm-up
// checkpoint when one applies, replay a shared trace batch when the
// store is enabled, else generate the trace privately. All three are
// bit-identical (equivalence-pinned).
func (r *runner) cold(cfg engine.Config, p trace.Profile) engine.Result {
	n := cfg.Normalized()
	total := n.Instructions + n.Warmup
	if r.o.Memo != nil && n.Warmup > 0 {
		ck, err := r.o.Memo.Checkpoint(cfg, p.Name, p.Seed, p.IPC, func() trace.Source {
			if r.o.Traces != nil {
				return r.o.Traces.Get(p, total).Replay()
			}
			return trace.NewGenerator(p)
		})
		if err == nil {
			ar := arenaPool.Get().(*engine.Arena)
			cfg.Arena = ar
			res, err := engineResume(ck, cfg)
			arenaPool.Put(ar)
			if err == nil {
				return res
			}
		}
		// A checkpoint path failure (uncheckpointable source, key drift)
		// falls through to an uncheckpointed run rather than failing the
		// sweep; the divergence-map tests keep this path unreachable for
		// the runner's own configs.
	}
	if r.o.Traces != nil {
		return runPooledSource(cfg, p, r.o.Traces.Get(p, total).Replay())
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
		return res, series, c.Cancel == nil || !c.Cancel()
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
