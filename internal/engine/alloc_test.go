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

// BenchmarkEngineStoreLoop measures the per-scheme hot loop: one full
// simulation per iteration on a pooled arena, so steady-state cost
// (not setup) dominates. b.ReportAllocs surfaces the alloc count the
// test above guards.
func BenchmarkEngineStoreLoop(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	for _, s := range Schemes() {
		s := s
		b.Run(string(s), func(b *testing.B) {
			ar := NewArena()
			cfg := Config{Scheme: s, Instructions: 500_000, Arena: ar}
			Run(cfg, p) // warm the arena outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(cfg, p)
			}
			b.SetBytes(0)
			b.ReportMetric(float64(cfg.Instructions)*float64(b.N)/b.Elapsed().Seconds()/1e6,
				"Minstr/s")
		})
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
