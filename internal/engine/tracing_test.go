package engine

import (
	"testing"

	"plp/internal/trace"
)

// countingSink tallies delivered events by kind without allocating in
// the emit path.
type countingSink struct {
	persists, epochs, other uint64
}

func (c *countingSink) fn(ev TraceEvent) {
	switch ev.Kind {
	case "persist":
		c.persists++
	case "epoch":
		c.epochs++
	default:
		c.other++
	}
}

func (c *countingSink) total() uint64 { return c.persists + c.epochs + c.other }

func runTraced(t *testing.T, scheme Scheme, tc TraceConfig) (Result, *countingSink) {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	sink := &countingSink{}
	tc.Sink = sink.fn
	cfg := Config{Scheme: scheme, Instructions: 150_000, Observer: NewTracer(tc)}
	return Run(cfg, p), sink
}

// TestTracingModeSwitching runs the same workload under each mode on
// fresh runs — the OFF -> HYBRID -> FULL lifetime of a service that
// re-tunes its tracing between jobs — and checks each mode's event
// subset and that cycles never move.
func TestTracingModeSwitching(t *testing.T) {
	scheme := SchemeCoalescing // emits both persist and epoch events

	if NewTracer(TraceConfig{Mode: TraceOff, Sink: (&countingSink{}).fn}) != nil {
		t.Fatal("OFF built a tracer; it must be the nil observer")
	}
	off, offSink := runTraced(t, scheme, TraceConfig{Mode: TraceOff})
	system, sysSink := runTraced(t, scheme, TraceConfig{Mode: TraceSystemOnly})
	hybrid, hybSink := runTraced(t, scheme, TraceConfig{Mode: TraceHybrid, SamplePercent: 10})
	full, fullSink := runTraced(t, scheme, TraceConfig{Mode: TraceFull})

	if offSink.total() != 0 {
		t.Fatalf("OFF emitted %d events", offSink.total())
	}
	if sysSink.persists != 0 || sysSink.epochs == 0 {
		t.Fatalf("SYSTEM-ONLY: %d persist, %d epoch events", sysSink.persists, sysSink.epochs)
	}
	if fullSink.persists != full.Persists || fullSink.epochs != full.Epochs {
		t.Fatalf("FULL: sink saw %d/%d, run did %d/%d persists/epochs",
			fullSink.persists, fullSink.epochs, full.Persists, full.Epochs)
	}
	// HYBRID admits exactly 10% of persists (deterministic accumulator)
	// and every epoch event.
	if want := full.Persists / 10; hybSink.persists != want {
		t.Fatalf("HYBRID-10%%: %d persist events, want %d of %d", hybSink.persists, want, full.Persists)
	}
	if hybSink.epochs != fullSink.epochs {
		t.Fatalf("HYBRID dropped epoch events: %d vs %d", hybSink.epochs, fullSink.epochs)
	}

	for name, r := range map[string]Result{"system": system, "hybrid": hybrid, "full": full} {
		if r.Cycles != off.Cycles {
			t.Errorf("%s mode moved cycles: %d vs %d", name, r.Cycles, off.Cycles)
		}
	}
}

// TestTraceConfigValidate covers the tracing validation surface.
func TestTraceConfigValidate(t *testing.T) {
	bad := []TraceConfig{
		{Mode: "verbose"},
		{Mode: TraceHybrid, SamplePercent: 101},
		{Mode: TraceHybrid, SamplePercent: -1},
	}
	for i, tc := range bad {
		if err := tc.Validate(); err == nil {
			t.Errorf("config %d validated clean", i)
		}
	}
	ok := TraceConfig{Mode: TraceHybrid, SamplePercent: 50, Sink: func(TraceEvent) {}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid tracing config rejected: %v", err)
	}
}

// benchMachine builds a minimal machine for per-persist benchmarks (a
// shallow tree keeps setup small; only the observation path is
// measured).
func benchMachine(b *testing.B, obs Observer) *machine {
	b.Helper()
	cfg := Config{Scheme: SchemeCoalescing, BMTLevels: 3, Observer: obs}
	cfg.fill()
	return newMachine(cfg)
}

// BenchmarkTracingOff is the overhead budget for OFF, the nil-Observer
// path every untraced run takes: a persist's observation epilogue must
// cost a nil check — 0 allocs/op (the CI tracing-overhead step asserts
// this).
func BenchmarkTracingOff(b *testing.B) {
	m := benchMachine(b, nil)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.coreTime = float64(i)
		m.retire(&res, 7, 100, 340, 340)
	}
}

// BenchmarkTracingModes measures the per-persist cost of each enabled
// mode through the real tracer: the overhead table in docs/MODEL.md
// §11 comes from these numbers.
func BenchmarkTracingModes(b *testing.B) {
	sink := &countingSink{}
	for _, tc := range []struct {
		name string
		cfg  TraceConfig
	}{
		{"system", TraceConfig{Mode: TraceSystemOnly, Sink: sink.fn}},
		{"hybrid10", TraceConfig{Mode: TraceHybrid, SamplePercent: 10, Sink: sink.fn}},
		{"full", TraceConfig{Mode: TraceFull, Sink: sink.fn}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			m := benchMachine(b, NewTracer(tc.cfg))
			var res Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.coreTime = float64(i)
				m.retire(&res, 7, 100, 340, 340)
			}
		})
	}
}
