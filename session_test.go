package plp_test

import (
	"bytes"
	"context"
	"log/slog"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"plp"
	"plp/internal/engine"
)

// TestSessionEquivalence pins that a Session run matches a bare
// engine.Run exactly — including when a (never-fired) cancellable
// context installs the engine's cancellation hook.
func TestSessionEquivalence(t *testing.T) {
	prof, ok := plp.BenchmarkByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	want := engine.Run(engine.Config{Scheme: plp.Coalescing, Instructions: 100_000}, prof)

	s, err := plp.NewSession(
		plp.WithProfile(prof),
		plp.WithScheme(plp.Coalescing),
		plp.WithInstructions(100_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("session result differs from engine.Run: cycles %d vs %d", got.Cycles, want.Cycles)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooked, err := plp.NewSession(
		plp.WithProfile(prof),
		plp.WithScheme(plp.Coalescing),
		plp.WithInstructions(100_000),
		plp.WithContext(ctx),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hooked.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("hooked session differs from engine.Run: cycles %d vs %d", res.Cycles, want.Cycles)
	}
}

// TestSessionErrors checks configuration mistakes surface as errors
// from NewSession, never panics from Run.
func TestSessionErrors(t *testing.T) {
	negBanks := plp.SimConfig{Scheme: plp.SP}
	negBanks.NVM.Banks = -1
	cases := []struct {
		name string
		opts []plp.SessionOption
		want string
	}{
		{"no benchmark", nil, "needs a benchmark"},
		{"unknown benchmark", []plp.SessionOption{plp.WithBenchmark("nonesuch")}, "unknown benchmark"},
		{"unknown scheme", []plp.SessionOption{
			plp.WithBenchmark("gcc"), plp.WithScheme("nonesuch")}, "unknown scheme"},
		{"bad config", []plp.SessionOption{
			plp.WithBenchmark("gcc"),
			plp.WithConfig(plp.SimConfig{Scheme: plp.SP, CtrCacheKB: 7})}, "" /* any error */},
		{"negative NVM banks", []plp.SessionOption{
			plp.WithBenchmark("gcc"), plp.WithConfig(negBanks)}, "NVM Banks"},
		{"nil context", []plp.SessionOption{
			plp.WithBenchmark("gcc"), plp.WithContext(nil)}, "WithContext(nil)"},
	}
	for _, tc := range cases {
		_, err := plp.NewSession(tc.opts...)
		if err == nil {
			t.Errorf("%s: NewSession accepted a bad configuration", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSessionOptions checks option composition: WithConfig as base,
// narrower options layered on top, accessors reflecting the result.
func TestSessionOptions(t *testing.T) {
	s, err := plp.NewSession(
		plp.WithConfig(plp.SimConfig{Scheme: plp.SP, EpochSize: 64}),
		plp.WithBenchmark("gamess"),
		plp.WithScheme(plp.O3),
		plp.WithInstructions(50_000),
		plp.WithFullMemory(),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Scheme != plp.O3 || cfg.EpochSize != 64 || cfg.Instructions != 50_000 || !cfg.FullMemory {
		t.Fatalf("config composition: %+v", cfg)
	}
	if s.Benchmark().Name != "gamess" {
		t.Fatalf("benchmark %q", s.Benchmark().Name)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != plp.O3 || res.Bench != "gamess" || res.Cycles == 0 {
		t.Fatalf("run result: %+v", res)
	}
}

// TestSessionCancel checks a cancelled context stops a long run
// promptly and Run reports the context error.
func TestSessionCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := plp.NewSession(
		plp.WithBenchmark("gamess"),
		plp.WithScheme(plp.Pipeline),
		plp.WithInstructions(500_000_000),
		plp.WithContext(ctx),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run()
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not stop within 30s")
	}

	// A session whose context is already dead refuses to run at all.
	if _, err := s.Run(); err != context.Canceled {
		t.Fatalf("dead-context run returned %v", err)
	}
}

// TestSessionTracing checks WithTracing delivers every persist and
// epoch event without perturbing results.
func TestSessionTracing(t *testing.T) {
	base, err := plp.NewSession(
		plp.WithBenchmark("gcc"),
		plp.WithScheme(plp.Coalescing),
		plp.WithInstructions(100_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	var events int
	s, err := plp.NewSession(
		plp.WithBenchmark("gcc"),
		plp.WithScheme(plp.Coalescing),
		plp.WithInstructions(100_000),
		plp.WithTracing(func(plp.TraceEvent) { events++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || uint64(events) != got.Persists+got.Epochs {
		t.Fatalf("tracing delivered %d events for %d persists and %d epochs",
			events, got.Persists, got.Epochs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tracing perturbed the result: cycles %d vs %d", got.Cycles, want.Cycles)
	}
}

// TestSessionTelemetry checks WithTelemetry streams the series, also
// when the session composes it with WithTracing, here a sink that
// keeps only epoch events by filtering on their Kind.
func TestSessionTelemetry(t *testing.T) {
	sampler := plp.NewTelemetrySampler(1000)
	var epochs uint64
	s, err := plp.NewSession(
		plp.WithBenchmark("gcc"),
		plp.WithScheme(plp.Coalescing),
		plp.WithInstructions(100_000),
		plp.WithTelemetry(sampler),
		plp.WithTracing(func(ev plp.TraceEvent) {
			if ev.Kind == "epoch" {
				epochs++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := sampler.Snapshot()
	if len(snap.Windows) == 0 {
		t.Fatal("telemetry sampler collected no windows")
	}
	var persists uint64
	for _, w := range snap.Windows {
		persists += w.Persists
	}
	if persists != res.Persists {
		t.Errorf("telemetry windows hold %d persists, run did %d", persists, res.Persists)
	}
	if epochs != res.Epochs {
		t.Errorf("composed tracer saw %d epoch events, run did %d epochs", epochs, res.Epochs)
	}
}

// TestSessionLogger checks WithLogger emits correlated start/finish
// records around a run, a logger-less session stays silent, and
// WithLogger(nil) is a configuration error.
func TestSessionLogger(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	s, err := plp.NewSession(
		plp.WithBenchmark("gcc"),
		plp.WithScheme(plp.Coalescing),
		plp.WithInstructions(100_000),
		plp.WithLogger(log),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`msg="run start"`, `msg="run finish"`,
		"bench=gcc", "scheme=coalescing", "cycles=" + strconv.FormatUint(uint64(res.Cycles), 10)} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	if _, err := plp.NewSession(plp.WithBenchmark("gcc"), plp.WithLogger(nil)); err == nil ||
		!strings.Contains(err.Error(), "WithLogger(nil)") {
		t.Fatalf("WithLogger(nil) error: %v", err)
	}
}
