package harness

import (
	"context"
	"time"

	"plp/internal/engine"
	"plp/internal/obs"
	"plp/internal/registry"
	"plp/internal/sim"
	"plp/internal/telemetry"
)

// RecordOptions bounds one registry recording sweep.
type RecordOptions struct {
	Options
	// Schemes restricts the scheme set (default: the paper's six).
	Schemes []engine.Scheme
	// Interval is the telemetry window width (0 = default).
	Interval sim.Cycle
	// NoTelemetry records headline numbers only (smaller files).
	NoTelemetry bool
	// Observe, when non-nil, is called once per run with its key: just
	// before a cold run starts, with its live sampler (nil when
	// NoTelemetry), or after a memo hit served the run, with nil. The
	// job service uses it to count progress and expose in-progress
	// series; it must be safe for concurrent calls from the fan-out
	// workers.
	Observe func(scheme engine.Scheme, bench string, s *telemetry.Sampler)
	// Span, when non-nil, parents one "sweep-point" span per
	// (scheme, bench) pair — each wrapping an "engine-run" child — so a
	// traced job's tree shows where sweep wall time went. Nil (the
	// default) records exactly the pre-tracing path.
	Span *obs.Span
}

// Record runs every (benchmark, scheme) pair and returns the registry
// runs sorted in deterministic (bench-major, scheme-minor per
// Schemes order) fan-out order. Benchmarks fan out across CPUs; each
// run owns a private telemetry sampler and writes its result into a
// pre-sized slot, so the merge is race-free by construction (verified
// with -race in the tests).
func Record(o RecordOptions) []registry.Run {
	runs, _ := RecordContext(context.Background(), o)
	return runs
}

// RecordContext is Record with cooperative cancellation: ctx gates the
// fan-out dispatch (no new run starts once ctx is done) and, for a
// cancellable context, threads into every engine run via Config.Cancel
// so even a multi-second run stops within microseconds of ctx firing.
// It returns the runs that completed before cancellation — runs cut
// short mid-flight are discarded, never reported — together with
// ctx.Err(). A background context reproduces Record exactly: no hook
// is installed and the results are bit-identical (equivalence-tested).
func RecordContext(ctx context.Context, o RecordOptions) ([]registry.Run, error) {
	if cancel := ctxCancel(ctx); cancel != nil {
		// One shared hook: Options.Cancel flows through runner.cfg into
		// every scheduled engine run.
		o.Cancel = cancel
	}
	r := newRunner(o.Options)
	schemes := o.Schemes
	if len(schemes) == 0 {
		schemes = engine.CoreSchemes()
	}
	profs := r.o.profiles()
	runs := make([]registry.Run, len(profs)*len(schemes))
	err := FanCtxProbe(ctx, len(profs), r.o.Parallel, r.o.Probe, func(i int) {
		p := profs[i]
		for si, s := range schemes {
			if ctx.Err() != nil {
				return
			}
			cfg := r.cfg(s)
			var observe func(*telemetry.Sampler)
			if o.Observe != nil {
				observe = func(sampler *telemetry.Sampler) { o.Observe(s, p.Name, sampler) }
			}
			var psp *obs.Span
			if o.Span != nil {
				psp = o.Span.Child("sweep-point",
					obs.String("scheme", string(s)), obs.String("bench", p.Name))
			}
			start := time.Now()
			var res engine.Result
			var series *telemetry.Series
			var hit bool
			if psp != nil {
				esp := psp.Child("engine-run")
				res, series, hit = r.runSeries(cfg, p, !o.NoTelemetry, o.Interval, observe)
				esp.End()
			} else {
				res, series, hit = r.runSeries(cfg, p, !o.NoTelemetry, o.Interval, observe)
			}
			wall := time.Since(start)
			if ctx.Err() != nil {
				// The run was (or may have been) cut short: its numbers
				// are not a real simulation result.
				if psp != nil {
					psp.SetAttr(obs.Bool("discarded", true))
					psp.End()
				}
				return
			}
			if psp != nil {
				psp.SetAttr(obs.Uint64("cycles", uint64(res.Cycles)),
					obs.Duration("wall", wall), obs.Bool("memoized", hit))
				psp.End()
			}
			rec := registry.FromResult(res, series)
			rec.SetTiming(wall)
			runs[i*len(schemes)+si] = rec
		}
	})
	if err != nil {
		// Compact away the slots of runs that never completed.
		kept := runs[:0]
		for _, rec := range runs {
			if rec.Scheme != "" {
				kept = append(kept, rec)
			}
		}
		runs = kept
	}
	return runs, err
}

// ctxCancel adapts ctx to an engine Config.Cancel hook, or nil for a
// context that can never be cancelled (ctx.Err() is then a pure
// function returning nil, and installing a hook would only cost the
// golden path its bit-identical no-hook equivalence).
func ctxCancel(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}
