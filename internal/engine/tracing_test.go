package engine

import "testing"

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

// benchMachine builds a minimal machine for per-persist benchmarks (a
// shallow tree keeps setup small; only the observation path is
// measured).
func benchMachine(b *testing.B, obs Observer) *machine {
	b.Helper()
	cfg := Config{Scheme: SchemeCoalescing, BMTLevels: 3, Observer: obs}
	cfg.fill()
	return newMachine(cfg)
}

// BenchmarkTracingOff is the overhead budget of the untraced path,
// the nil Observer every untraced run takes: a persist's observation
// epilogue must cost a nil check — 0 allocs/op (the CI tracing-overhead
// step asserts this).
func BenchmarkTracingOff(b *testing.B) {
	benchRetire(b, nil)
}

// BenchmarkTracingOn measures the per-persist cost of the tracer with a
// sink that counts events: the figure docs/MODEL.md §11 quotes.
func BenchmarkTracingOn(b *testing.B) {
	benchRetire(b, NewTracer((&countingSink{}).fn))
}

func benchRetire(b *testing.B, obs Observer) {
	m := benchMachine(b, obs)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.coreTime = float64(i)
		m.retire(&res, 7, 100, 340, 340)
	}
}
