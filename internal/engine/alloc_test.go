package engine

import (
	"runtime"
	"testing"

	"plp/internal/trace"
)

// allocsForRun measures total heap allocations of one simulation.
func allocsForRun(cfg Config, p trace.Profile) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(cfg, p)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestZeroAllocSteadyState asserts the tentpole property of the
// hot-path rework: once a run is set up, simulating more stores
// allocates nothing. Direct testing.AllocsPerRun can't express this
// (setup inevitably allocates), so it uses the delta method: a run 5x
// longer must allocate no more than the short one — every allocation
// is attributable to setup, none to the per-store steady state.
//
// A small tolerance absorbs runtime-internal background allocations
// (GC mark assists, timer wakeups) that MemStats cannot exclude; the
// pre-rework engine allocated hundreds of thousands of objects per
// extra million instructions, so the signal is unambiguous.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow")
	}
	p, _ := trace.ProfileByName("gcc")
	const short, long = 300_000, 1_500_000
	const tolerance = 200 // runtime noise, not per-store work
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			ar := NewArena()
			// Prime the arena so both measured runs reuse its buffers.
			Run(Config{Scheme: s, Instructions: 50_000, Arena: ar}, p)
			base := allocsForRun(Config{Scheme: s, Instructions: short, Arena: ar}, p)
			grown := allocsForRun(Config{Scheme: s, Instructions: long, Arena: ar}, p)
			if grown > base+tolerance {
				t.Errorf("%s: %d instructions allocated %d objects, %d allocated %d — "+
					"steady state leaks %d allocs",
					s, short, base, long, grown, grown-base)
			}
		})
	}
}

// TestArenaRunAllocs guards what the arena saves a repeated run: on an
// arena primed by the same run, a run of any scheme finds its caches
// and its stream there and allocates under 64 KB, only the per-run
// models (it allocated about 1.4 MB of cache arrays before the arena
// kept them).
func TestArenaRunAllocs(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	const bound = 64 << 10
	for _, s := range AllSchemes() {
		cfg := Config{Scheme: s, Instructions: 100_000, Arena: NewArena()}
		Run(cfg, p)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(cfg, p)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s: a repeated run on a primed arena allocated %d bytes, bound %d", s, got, bound)
		}
	}
}

// BenchmarkEngineStoreLoop measures the per-scheme hot loop: one full
// simulation per iteration on a pooled arena, so steady-state cost
// (not setup) dominates; every iteration replays the arena's
// recording of the stream instead of generating it. Every iteration
// reruns one config, so under the seven schemes that share their
// metadata-cache lookups (SchemeSpec.sharesLookups) it replays the
// arena's recording of them and times no cache lookup. Their _live
// sub-benchmarks time the live path instead: iterations alternate
// between 500 000 and 500 001 instructions, so each run's lookups have
// a new key and record themselves while it still reads the shared op
// recording. b.ReportAllocs surfaces the alloc count the tests above
// guard.
func BenchmarkEngineStoreLoop(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	bench := func(b *testing.B, s Scheme, instrs ...uint64) {
		ar := NewArena()
		cfg := Config{Scheme: s, Instructions: instrs[len(instrs)-1], Arena: ar}
		Run(cfg, p) // warm the arena outside the timed region
		b.ReportAllocs()
		b.ResetTimer()
		total := 0.0
		for i := 0; i < b.N; i++ {
			cfg.Instructions = instrs[i%len(instrs)]
			Run(cfg, p)
			total += float64(cfg.Instructions)
		}
		b.SetBytes(0)
		b.ReportMetric(total/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
	for _, s := range Schemes() {
		b.Run(string(s), func(b *testing.B) { bench(b, s, 500_000) })
		if specOf(s).sharesLookups {
			b.Run(string(s)+"_live", func(b *testing.B) { bench(b, s, 500_000, 500_001) })
		}
	}
}

// TestRunMemoryFollowsFootprint bounds one run's total heap allocation
// at deep trees. The write-merge table covers the data, counter and MAC
// lines a run can merge — BMT node writes never merge — so its size
// follows the protected data, and a 12- or 16-level tree costs what
// the default 9-level one does instead of one table entry per node
// line (about 10 GB at 12 levels).
func TestRunMemoryFollowsFootprint(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	const bound = 256 << 20
	for _, levels := range []int{12, 16} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(Config{Scheme: SchemePipeline, BMTLevels: levels, Instructions: 100_000}, p)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%d levels: one run allocated %d MB, bound %d MB", levels, got>>20, bound>>20)
		}
	}
}
