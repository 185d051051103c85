package engine_test

import (
	"reflect"
	"testing"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// TestObserversAreObservational pins the observational guarantee over
// every Observer implementation and every scheme: attaching one leaves
// the whole Result — cycles, counts, histograms, attribution —
// bit-identical to an unobserved run. The nil observer, the path every
// unobserved run takes, must add no allocation to a persist.
func TestObserversAreObservational(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	observers := []struct {
		name string
		make func() engine.Observer // nil: the nil observer
	}{
		{"nil", nil},
		{"tracer", func() engine.Observer { return engine.NewTracer(func(engine.TraceEvent) {}) }},
		{"telemetry", func() engine.Observer {
			return telemetry.NewSampler(4096, 0, engine.ComponentLabels())
		}},
		{"crash-log", func() engine.Observer { return &crash.Log{} }},
	}
	ar := engine.NewArena()
	for _, s := range engine.AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			cfg := engine.Config{Scheme: s, Instructions: 100_000}
			base := engine.Run(cfg, p)
			for _, o := range observers {
				if o.make == nil {
					nilCfg := cfg
					nilCfg.Arena = ar
					if allocs := engine.ObservationAllocs(nilCfg); allocs != 0 {
						t.Errorf("nil observer: a persist's observation allocates %.1f, want 0", allocs)
					}
					continue
				}
				c := cfg
				c.Observer = o.make()
				if got := engine.Run(c, p); !reflect.DeepEqual(got, base) {
					t.Errorf("%s observer perturbed the result (cycles %d vs %d)", o.name, got.Cycles, base.Cycles)
				}
			}
		})
	}
}
