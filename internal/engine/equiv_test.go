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

// TestArenaReuseEquivalence runs one arena through a sequence that
// changes everything the arena carries from run to run, and requires
// every Result to equal the same config run without an arena. The
// sequence runs every scheme on three benchmarks in turn, so each
// benchmark's recording is made by one run and replayed by the rest,
// at run lengths above what is recorded (extending it) and below. It
// mixes in warm-up, full-memory and read-verification runs and a
// different LLC and metadata-cache geometry (new caches, then reset
// ones); then two custom profiles that share a name and a seed but not
// their rates; then, unless -short, a run past RecordingCap.
func TestArenaReuseEquivalence(t *testing.T) {
	ar := NewArena()
	check := func(cfg Config, p trace.Profile) {
		t.Helper()
		clean := Run(cfg, p)
		cfg.Arena = ar
		if got := Run(cfg, p); !reflect.DeepEqual(clean, got) {
			t.Fatalf("%s on %s (%+v): arena-backed result differs from arena-free run", cfg.Scheme, p.Name, cfg)
		}
		if !ar.Holds(p) {
			t.Fatalf("%s on %s: arena does not hold the profile it ran", cfg.Scheme, p.Name)
		}
	}
	for _, name := range []string{"gcc", "gamess", "milc"} {
		p, _ := trace.ProfileByName(name)
		for i, s := range AllSchemes() {
			cfg := Config{Scheme: s, Instructions: []uint64{60_000, 100_000, 40_000}[i%3]}
			switch i % 6 {
			case 1:
				// Long enough to write dirty lines out of the LLC that
				// secure_WB, the scheme before, left wired to its hook.
				cfg.Warmup = 300_000
			case 2:
				cfg.FullMemory = true
			case 3:
				cfg.ReadVerification = true
			case 4:
				// Warm-up is what reads the LLC outside secure_WB.
				cfg.LLCKB, cfg.LLCWays, cfg.Warmup = 1024, 16, 100_000
			case 5:
				cfg.CtrCacheKB, cfg.BMTCacheKB, cfg.MDCWays = 32, 64, 4
			}
			check(cfg, p)
		}
	}
	kvA, errA := trace.ParseProfileSpec("stores=80,distinct=30,wb=5,thrash=1")
	kvB, errB := trace.ParseProfileSpec("stores=60,distinct=30,wb=5,thrash=1")
	if errA != nil || errB != nil || kvA.Name != kvB.Name || kvA.Seed != kvB.Seed {
		t.Fatalf("custom profiles: %v %v %+v %+v", errA, errB, kvA, kvB)
	}
	for _, p := range []trace.Profile{kvA, kvB, kvA} {
		check(Config{Scheme: SchemePipeline, Instructions: 50_000}, p)
	}
	if testing.Short() {
		return
	}
	// gcc makes about 0.4 ops per instruction, so 12M instructions read
	// past the cap.
	gcc, _ := trace.ProfileByName("gcc")
	check(Config{Scheme: SchemePipeline, Instructions: 12_000_000}, gcc)
	if got := ar.rec.Ops(); got != trace.RecordingCap {
		t.Fatalf("recording holds %d ops after a run past the cap, want %d", got, trace.RecordingCap)
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
