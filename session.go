package plp

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"plp/internal/engine"
	"plp/internal/sim"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// Telemetry (see internal/telemetry): windowed time series a running
// simulation appends to and concurrent readers snapshot.
type (
	// TelemetrySampler collects a simulation's windowed time series;
	// attach one with WithTelemetry and Snapshot it at any time, even
	// while the simulation runs.
	TelemetrySampler = telemetry.Sampler
	// TelemetrySeries is a sampler snapshot.
	TelemetrySeries = telemetry.Series
)

// NewTelemetrySampler creates a sampler with the given window width in
// cycles (0 = default) wired for the engine's component labels.
func NewTelemetrySampler(intervalCycles uint64) *TelemetrySampler {
	return telemetry.NewSampler(sim.Cycle(intervalCycles), 0, engine.ComponentLabels())
}

// TraceEvent is one structured event of a running simulation (see
// internal/engine), delivered to a WithTracing sink. Tracing is
// observational — simulated cycles are bit-identical with or without
// it.
type TraceEvent = engine.TraceEvent

// Session is the configured entry point for timing simulations: build
// one with NewSession and functional options, then Run it. A Session
// validates its configuration up front (returning errors instead of
// panicking deep in the engine), carries an optional context whose
// cancellation stops the run cooperatively, and can stream telemetry
// and trace events while running.
//
//	prof, _ := plp.BenchmarkByName("gcc")
//	s, err := plp.NewSession(
//		plp.WithProfile(prof),
//		plp.WithScheme(plp.Coalescing),
//		plp.WithInstructions(1_000_000),
//	)
//	if err != nil { ... }
//	res, err := s.Run()
//
// A Session is immutable after NewSession and safe to Run repeatedly
// (and concurrently): the simulator is deterministic, so every
// uncancelled Run returns identical results.
type Session struct {
	cfg     engine.Config
	prof    trace.Profile
	profSet bool
	ctx     context.Context
	log     *slog.Logger
	tel     *telemetry.Sampler
	sink    func(TraceEvent)

	err error // first option error, surfaced by NewSession
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithProfile selects the benchmark profile to drive the simulation.
func WithProfile(p Profile) SessionOption {
	return func(s *Session) { s.prof, s.profSet = p, true }
}

// WithBenchmark selects the benchmark profile by name (see Benchmarks
// for the 15 available).
func WithBenchmark(name string) SessionOption {
	return func(s *Session) {
		p, ok := trace.ProfileByName(name)
		if !ok {
			s.fail(fmt.Errorf("plp: unknown benchmark %q", name))
			return
		}
		s.prof, s.profSet = p, true
	}
}

// WithScheme selects the persist mechanism (default secure_WB).
func WithScheme(sch Scheme) SessionOption {
	return func(s *Session) { s.cfg.Scheme = sch }
}

// WithInstructions sets the instruction budget (0 = engine default).
func WithInstructions(n uint64) SessionOption {
	return func(s *Session) { s.cfg.Instructions = n }
}

// WithFullMemory switches to the full-memory-persistence configuration
// (every store persists, not just the marked subset).
func WithFullMemory() SessionOption {
	return func(s *Session) { s.cfg.FullMemory = true }
}

// WithConfig replaces the session's whole engine configuration —
// the escape hatch for knobs without a dedicated option (cache
// geometry, MAC latency, epoch size, fault injection, ...). Apply it
// before the narrower options so they win.
func WithConfig(cfg SimConfig) SessionOption {
	return func(s *Session) {
		prev := s.cfg.Cancel
		s.cfg = cfg
		if s.cfg.Cancel == nil {
			s.cfg.Cancel = prev
		}
	}
}

// WithContext attaches a context: if it is cancelled (or its deadline
// passes) mid-run, the simulation stops cooperatively within a few
// thousand simulated operations and Run returns the context's error.
// An uncancelled context leaves results bit-identical to a run without
// one (equivalence-pinned in the engine tests).
func WithContext(ctx context.Context) SessionOption {
	return func(s *Session) {
		if ctx == nil {
			s.fail(fmt.Errorf("plp: WithContext(nil)"))
			return
		}
		s.ctx = ctx
	}
}

// WithTelemetry attaches a sampler (NewTelemetrySampler) that collects
// the run's windowed time series; Snapshot it concurrently for live
// progress.
func WithTelemetry(t *TelemetrySampler) SessionOption {
	return func(s *Session) { s.tel = t }
}

// WithLogger attaches a structured logger (e.g. obs.NewLogger's):
// every Run logs a start line (bench, scheme, instructions) and a
// finish line (cycles, wall time, error if any). A session built
// without WithLogger logs nothing — the default path is unchanged.
// A nil logger is a configuration error, like WithContext(nil): pass
// no option at all to run silently.
func WithLogger(l *slog.Logger) SessionOption {
	return func(s *Session) {
		if l == nil {
			s.fail(fmt.Errorf("plp: WithLogger(nil)"))
			return
		}
		s.log = l
	}
}

// WithTracing attaches a sink that receives every persist and epoch
// event of each Run; a sink that wants fewer filters on ev.Kind. A nil
// sink traces nothing and keeps the engine's exact zero-overhead path.
func WithTracing(sink func(TraceEvent)) SessionOption {
	return func(s *Session) { s.sink = sink }
}

func (s *Session) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// NewSession builds and validates a simulation session. All
// configuration errors surface here — a constructed Session's Run
// cannot panic on bad configuration.
func NewSession(opts ...SessionOption) (*Session, error) {
	s := &Session{ctx: context.Background()}
	for _, opt := range opts {
		opt(s)
	}
	if s.err != nil {
		return nil, s.err
	}
	if !s.profSet {
		return nil, fmt.Errorf("plp: session needs a benchmark (WithProfile or WithBenchmark)")
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("plp: %w", err)
	}
	return s, nil
}

// Config returns the session's resolved engine configuration.
func (s *Session) Config() SimConfig { return s.cfg }

// Benchmark returns the session's benchmark profile.
func (s *Session) Benchmark() Profile { return s.prof }

// Run executes the simulation. If the session's context fires mid-run
// the partial result is returned together with the context's error —
// treat the numbers as meaningless progress, not a measurement.
func (s *Session) Run() (SimResult, error) {
	if err := s.ctx.Err(); err != nil {
		return SimResult{}, err
	}
	cfg := s.cfg
	if s.ctx.Done() != nil {
		// Only a cancellable context installs the hook: background
		// sessions keep the engine's exact no-hook code path.
		cfg.Cancel = s.ctx
	}
	cfg.Observer = s.observer()
	if s.log != nil {
		s.log.Info("run start",
			"bench", s.prof.Name,
			"scheme", string(cfg.Scheme),
			"instructions", cfg.Instructions)
	}
	start := time.Now()
	res := engine.Run(cfg, s.prof)
	err := s.ctx.Err()
	if s.log != nil {
		attrs := []any{
			"bench", s.prof.Name,
			"scheme", string(cfg.Scheme),
			"cycles", uint64(res.Cycles),
			"wall", time.Since(start),
		}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
		}
		s.log.Info("run finish", attrs...)
	}
	if err != nil {
		return res, err
	}
	return res, nil
}

// observer composes one run's observers: WithConfig's own, the
// telemetry sampler, and a tracer. None of them costs the run anything
// when absent.
func (s *Session) observer() engine.Observer {
	var all observers
	if s.cfg.Observer != nil {
		all = append(all, s.cfg.Observer)
	}
	if s.tel != nil {
		all = append(all, s.tel)
	}
	if tr := engine.NewTracer(s.sink); tr != nil {
		all = append(all, tr)
	}
	switch len(all) {
	case 0:
		return nil
	case 1:
		return all[0]
	}
	return all
}

// observers hands every observation to each member in turn.
type observers []engine.Observer

func (o observers) Persist(r engine.PersistRecord) {
	for _, x := range o {
		x.Persist(r)
	}
}

func (o observers) Epoch(r engine.EpochRecord) {
	for _, x := range o {
		x.Epoch(r)
	}
}

func (o observers) Sample(p engine.Probe) {
	for _, x := range o {
		x.Sample(p)
	}
}

func (o observers) End(p engine.Probe) {
	for _, x := range o {
		x.End(p)
	}
}
