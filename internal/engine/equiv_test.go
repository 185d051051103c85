package engine

import (
	"reflect"
	"testing"

	"plp/internal/trace"
)

// perOpSource wraps a Generator but hides its BatchSource interface,
// forcing the engine down the per-op fallback path.
type perOpSource struct{ g *trace.Generator }

func (s perOpSource) Next() trace.Op   { return s.g.Next() }
func (s perOpSource) Progress() uint64 { return s.g.Progress() }

// TestBatchedSourceEquivalence runs every scheme twice — once with the
// generator's batched Fill path, once with per-op Next calls — and
// requires the complete Result (histograms, attribution, everything)
// to match exactly. Batching must be invisible to the timing model.
func TestBatchedSourceEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	schemes := AllSchemes()
	for _, s := range schemes {
		cfg := Config{Scheme: s, Instructions: 60_000, Warmup: 20_000}
		batched := RunSource(cfg, p.Name, p.IPC, trace.NewGenerator(p))
		direct := RunSource(cfg, p.Name, p.IPC, perOpSource{trace.NewGenerator(p)})
		if !reflect.DeepEqual(batched, direct) {
			t.Errorf("%s: batched and per-op results differ\nbatched: %+v\ndirect:  %+v",
				s, batched, direct)
		}
	}
}

// TestArenaEquivalence reruns each scheme with a shared, already-dirty
// arena and requires full Result equality with the arena-free run:
// buffer reuse across runs of different schemes must not leak state.
func TestArenaEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("leslie3d")
	ar := NewArena()
	schemes := AllSchemes()
	for _, s := range schemes {
		cfg := Config{Scheme: s, Instructions: 60_000}
		clean := Run(cfg, p)
		cfg.Arena = ar
		pooled := Run(cfg, p)
		if !reflect.DeepEqual(clean, pooled) {
			t.Errorf("%s: arena-backed result differs from arena-free run", s)
		}
	}
	// Run the epoch scheme twice more on the same arena: the epoch
	// generation set must self-clean across runs.
	cfg := Config{Scheme: SchemeCoalescing, Instructions: 60_000, Arena: ar}
	first := Run(cfg, p)
	second := Run(cfg, p)
	if !reflect.DeepEqual(first, second) {
		t.Error("coalescing: consecutive runs on one arena diverge")
	}
}

// TestPhasedSourceStillWorks pins that non-batch sources (PhasedSource
// does not implement trace.BatchSource) keep running through the
// fallback path and produce a sane result.
func TestPhasedSourceStillWorks(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ps := trace.NewPhasedSource(p, trace.Burst(10_000, 10_000, 2))
	if _, ok := interface{}(ps).(trace.BatchSource); ok {
		t.Fatal("PhasedSource unexpectedly implements BatchSource; this test needs a new non-batch source")
	}
	res := RunSource(Config{Scheme: SchemeCoalescing, Instructions: 50_000}, p.Name, p.IPC, ps)
	if res.Cycles == 0 || res.Persists == 0 {
		t.Fatalf("phased run produced empty result: %+v", res)
	}
}
