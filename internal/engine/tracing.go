package engine

import "fmt"

// TraceMode selects how much of a run's structured event stream a
// tracer delivers to its sink. Tracing is observational in every mode:
// simulated cycles are bit-identical whether tracing is off, full, or
// anything between. The modes trade simulator wall-clock overhead for
// event resolution:
//
//	OFF          no tracer at all: the nil-Observer hot path, zero
//	             allocations and zero extra work (BenchmarkTracingOff).
//	SYSTEM-ONLY  epoch events only; per-persist events dropped. Cost is
//	             one sink call per epoch, thousands of times rarer than
//	             persists.
//	HYBRID       SYSTEM-ONLY plus a deterministic SamplePercent% of
//	             persist events.
//	FULL         every event.
type TraceMode string

// The tracing modes. The zero value is TraceOff, so an unconfigured
// TraceConfig traces nothing.
const (
	TraceOff        TraceMode = ""
	TraceSystemOnly TraceMode = "system"
	TraceHybrid     TraceMode = "hybrid"
	TraceFull       TraceMode = "full"
)

// DefaultSamplePercent is HYBRID's persist-event sampling rate when
// TraceConfig.SamplePercent is 0.
const DefaultSamplePercent = 10

// TraceConfig is a sink plus a mode that decides which of a run's
// events reach it (see NewTracer).
type TraceConfig struct {
	// Mode selects the event subset ("" = off).
	Mode TraceMode
	// Sink receives the selected events. A nil sink disables tracing
	// regardless of mode.
	Sink func(TraceEvent)
	// SamplePercent is HYBRID's persist-event sampling rate in percent
	// (1..100; 0 = DefaultSamplePercent). Sampling is deterministic —
	// an accumulator admits exactly SamplePercent of every 100
	// consecutive persist events — so repeated runs emit identical
	// event streams.
	SamplePercent int
}

// Validate reports why the tracing configuration cannot run.
func (tc TraceConfig) Validate() error {
	switch tc.Mode {
	case TraceOff, TraceSystemOnly, TraceHybrid, TraceFull:
	default:
		return fmt.Errorf("engine: unknown trace mode %q (known: %q, %q, %q, %q)",
			tc.Mode, TraceOff, TraceSystemOnly, TraceHybrid, TraceFull)
	}
	if tc.SamplePercent < 0 || tc.SamplePercent > 100 {
		return fmt.Errorf("engine: trace SamplePercent must be in [0,100], got %d", tc.SamplePercent)
	}
	return nil
}

// NewTracer returns the Observer that streams a run's events to
// tc.Sink as tc.Mode selects, or nil — the free path — when tc traces
// nothing (OFF, or no sink). A tracer carries per-run sampling state:
// build one per run.
func NewTracer(tc TraceConfig) Observer {
	if tc.Mode == TraceOff || tc.Sink == nil {
		return nil
	}
	t := &tracer{mode: tc.Mode, sink: tc.Sink}
	if tc.Mode == TraceHybrid {
		t.rate = tc.SamplePercent
		if t.rate == 0 {
			t.rate = DefaultSamplePercent
		}
	}
	return t
}

// tracer filters the run's persist and epoch records into trace
// events. HYBRID's accumulator gains rate per persist event and admits
// one each time it reaches 100.
type tracer struct {
	mode TraceMode
	sink func(TraceEvent)
	rate int
	acc  int
}

func (t *tracer) Persist(r PersistRecord) {
	switch t.mode {
	case TraceSystemOnly:
		return
	case TraceHybrid:
		t.acc += t.rate
		if t.acc < 100 {
			return
		}
		t.acc -= 100
	}
	t.sink(r.event())
}

func (t *tracer) Epoch(r EpochRecord) { t.sink(r.event()) }
func (t *tracer) Sample(Probe)        {}
func (t *tracer) End(Probe)           {}
