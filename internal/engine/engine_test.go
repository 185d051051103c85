package engine

import (
	"math"
	"reflect"
	"testing"

	"plp/internal/sim"
	"plp/internal/trace"
)

const testInstr = 500_000

func run(t *testing.T, cfg Config, bench string) Result {
	t.Helper()
	p, ok := trace.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	if cfg.Instructions == 0 {
		cfg.Instructions = testInstr
	}
	return Run(cfg, p)
}

func norm(t *testing.T, scheme Scheme, bench string) float64 {
	t.Helper()
	base := run(t, Config{Scheme: SchemeSecureWB}, bench)
	r := run(t, Config{Scheme: scheme}, bench)
	return float64(r.Cycles) / float64(base.Cycles)
}

func TestDeterministic(t *testing.T) {
	a := run(t, Config{Scheme: SchemeCoalescing}, "gcc")
	b := run(t, Config{Scheme: SchemeCoalescing}, "gcc")
	if a.Cycles != b.Cycles || a.Persists != b.Persists {
		t.Fatalf("nondeterministic: %v vs %v", a.Cycles, b.Cycles)
	}
}

func TestSchemeOrdering(t *testing.T) {
	// The paper's headline ordering: sp >> pipeline >= o3 ~= coalescing.
	for _, bench := range []string{"gamess", "gcc", "h264ref"} {
		sp := norm(t, SchemeSP, bench)
		pipe := norm(t, SchemePipeline, bench)
		o3 := norm(t, SchemeO3, bench)
		co := norm(t, SchemeCoalescing, bench)
		if !(sp > pipe) {
			t.Errorf("%s: sp (%.2f) not worse than pipeline (%.2f)", bench, sp, pipe)
		}
		if !(pipe >= o3*0.95) {
			t.Errorf("%s: pipeline (%.2f) much better than o3 (%.2f)", bench, pipe, o3)
		}
		if co > o3*1.05 {
			t.Errorf("%s: coalescing (%.2f) worse than o3 (%.2f)", bench, co, o3)
		}
	}
}

func TestGamessSPSlowdownMatchesPaperMath(t *testing.T) {
	// §VII: gamess, 51.38 non-stack PPKI, 360 cycles per persist →
	// IPC ≈ 0.053 and slowdown ≈ 45.3x. Allow a generous band.
	got := norm(t, SchemeSP, "gamess")
	if got < 35 || got < 1 || got > 60 {
		t.Fatalf("gamess sp slowdown = %.1f, want ~45", got)
	}
	r := run(t, Config{Scheme: SchemeSP}, "gamess")
	if r.IPC < 0.04 || r.IPC > 0.07 {
		t.Fatalf("gamess sp IPC = %.3f, want ~0.053", r.IPC)
	}
}

func TestPipelineSpeedupOverSP(t *testing.T) {
	// Pipelining approaches a BMT-depth-fold improvement for
	// persist-bound workloads (paper: 3.4x gmean, ~9x upper bound).
	sp := norm(t, SchemeSP, "gamess")
	pipe := norm(t, SchemePipeline, "gamess")
	speedup := sp / pipe
	if speedup < 3 || speedup > 12 {
		t.Fatalf("pipeline speedup over sp = %.2f, want 3..12", speedup)
	}
}

func TestUnorderedCheaperThanSP(t *testing.T) {
	// Not enforcing Invariant 2 is much cheaper — the paper's point
	// about prior work underestimating BMT persistence costs.
	un := norm(t, SchemeUnordered, "gamess")
	sp := norm(t, SchemeSP, "gamess")
	if un >= sp/2 {
		t.Fatalf("unordered (%.2f) not much cheaper than sp (%.2f)", un, sp)
	}
}

func TestFullMemoryCostsMore(t *testing.T) {
	for _, s := range []Scheme{SchemeSP, SchemeO3} {
		def := run(t, Config{Scheme: s}, "astar") // astar: 84% stack stores
		full := run(t, Config{Scheme: s, FullMemory: true}, "astar")
		if full.Cycles <= def.Cycles {
			t.Errorf("%s: full-memory (%d) not slower than non-stack (%d)", s, full.Cycles, def.Cycles)
		}
		if full.Persists <= def.Persists {
			t.Errorf("%s: full-memory persists %d <= %d", s, full.Persists, def.Persists)
		}
	}
}

func TestPPKIMatchesTableV(t *testing.T) {
	// sp PPKI ~ Table V sp column; o3 PPKI ~ o3 column (within 2x).
	for _, bench := range []string{"gamess", "gcc", "sphinx3"} {
		p, _ := trace.ProfileByName(bench)
		sp := run(t, Config{Scheme: SchemeSP}, bench)
		if math.Abs(sp.PPKI-p.Paper.Sp)/p.Paper.Sp > 0.15 {
			t.Errorf("%s: sp PPKI %.2f vs paper %.2f", bench, sp.PPKI, p.Paper.Sp)
		}
		o3 := run(t, Config{Scheme: SchemeO3}, bench)
		ratio := o3.PPKI / p.Paper.O3
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: o3 PPKI %.2f vs paper %.2f", bench, o3.PPKI, p.Paper.O3)
		}
	}
}

func TestMACLatencyScaling(t *testing.T) {
	// Fig. 9: sp overhead scales with MAC latency, and a zero-latency
	// MAC removes nearly all of it.
	base := run(t, Config{Scheme: SchemeSecureWB}, "gamess")
	prev := sim.Cycle(0)
	for _, lat := range []sim.Cycle{0, 20, 40, 80} {
		r := run(t, Config{Scheme: SchemeSP}.WithMACLatency(lat), "gamess")
		if r.Cycles <= prev {
			t.Fatalf("mac=%d not slower than previous", lat)
		}
		prev = r.Cycles
		if lat == 0 {
			n := float64(r.Cycles) / float64(base.Cycles)
			if n > 1.2 {
				t.Fatalf("mac=0 sp overhead = %.2f, want ~1", n)
			}
		}
	}
}

func TestIdealMDCNearBaseline(t *testing.T) {
	// Fig. 9: ideal metadata caches + free MACs → negligible overhead.
	n := norm(t, SchemeSP, "gamess")
	base := run(t, Config{Scheme: SchemeSecureWB}, "gamess")
	ideal := run(t, Config{Scheme: SchemeSP, IdealMDC: true}, "gamess")
	in := float64(ideal.Cycles) / float64(base.Cycles)
	if in > 1.05 {
		t.Fatalf("ideal MDC sp overhead = %.3f, want ~1", in)
	}
	if n < 10 {
		t.Fatalf("realistic sp should be far above ideal (got %.2f)", n)
	}
}

func TestEpochSizeSweep(t *testing.T) {
	// Fig. 11: PPKI decreases monotonically with epoch size.
	// Fig. 12: execution time improves strongly from tiny epochs and
	// flattens (diminishing returns).
	var lastPPKI = math.Inf(1)
	var cyc4, cyc32, cyc256 sim.Cycle
	for _, es := range []int{4, 8, 16, 32, 64, 128, 256} {
		r := run(t, Config{Scheme: SchemeCoalescing, EpochSize: es}, "gamess")
		if r.PPKI >= lastPPKI {
			t.Errorf("PPKI not decreasing at epoch %d: %.2f >= %.2f", es, r.PPKI, lastPPKI)
		}
		lastPPKI = r.PPKI
		switch es {
		case 4:
			cyc4 = r.Cycles
		case 32:
			cyc32 = r.Cycles
		case 256:
			cyc256 = r.Cycles
		}
	}
	if !(cyc4 > cyc32) {
		t.Errorf("epoch 4 (%d) not slower than 32 (%d)", cyc4, cyc32)
	}
	// Past 32 the curve flattens: 256 within 20% of 32.
	if f := float64(cyc256) / float64(cyc32); f > 1.2 {
		t.Errorf("epoch 256/32 = %.2f, expected flattening", f)
	}
}

func TestWPQSweep(t *testing.T) {
	// §VII: fewer than 32 entries hurts; beyond 32 is flat.
	c4 := run(t, Config{Scheme: SchemeCoalescing, WPQEntries: 4}, "gamess").Cycles
	c32 := run(t, Config{Scheme: SchemeCoalescing, WPQEntries: 32}, "gamess").Cycles
	c64 := run(t, Config{Scheme: SchemeCoalescing, WPQEntries: 64}, "gamess").Cycles
	if c4 < c32 {
		t.Errorf("WPQ 4 (%d) faster than 32 (%d)", c4, c32)
	}
	if diff := math.Abs(float64(c64)-float64(c32)) / float64(c32); diff > 0.02 {
		t.Errorf("WPQ 64 differs from 32 by %.1f%%", diff*100)
	}
}

func TestCoalescingReducesNodeUpdates(t *testing.T) {
	// §VII: coalescing removes ~26% of BMT node updates vs o3.
	o3 := run(t, Config{Scheme: SchemeO3}, "gamess")
	co := run(t, Config{Scheme: SchemeCoalescing}, "gamess")
	if co.BMTNodeUpdates >= o3.BMTNodeUpdates {
		t.Fatalf("coalescing updates %d >= o3 %d", co.BMTNodeUpdates, o3.BMTNodeUpdates)
	}
	red := co.CoalescingReduction()
	if red < 0.10 || red > 0.60 {
		t.Fatalf("coalescing reduction = %.2f, want 0.1..0.6", red)
	}
	if o3.CoalescingReduction() != 0 {
		t.Fatal("o3 should report zero reduction")
	}
}

func TestSGXTreeCostlierThanSP(t *testing.T) {
	// §IV-D: persisting the whole counter-tree path per store costs
	// more than BMT root-only persistence.
	sp := run(t, Config{Scheme: SchemeSP}, "sphinx3")
	sgx := run(t, Config{Scheme: SchemeSGXTree}, "sphinx3")
	if sgx.Cycles <= sp.Cycles {
		t.Fatalf("sgxtree (%d) not slower than sp (%d)", sgx.Cycles, sp.Cycles)
	}
}

func TestSecureWBWritebackRate(t *testing.T) {
	// The baseline's writeback PPKI should approximate Table V's
	// secure_WB column (order of magnitude).
	for _, bench := range []string{"bwaves", "gamess"} {
		p, _ := trace.ProfileByName(bench)
		r := run(t, Config{Scheme: SchemeSecureWB, Instructions: 2_000_000, FullMemory: true}, bench)
		if p.Paper.WBFull == 0 {
			if r.PPKI > 0.5 {
				t.Errorf("%s: writeback PPKI %.2f, want ~0", bench, r.PPKI)
			}
			continue
		}
		ratio := r.PPKI / p.Paper.WBFull
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("%s: writeback PPKI %.2f vs paper %.2f", bench, r.PPKI, p.Paper.WBFull)
		}
	}
}

func TestLLCSweepModest(t *testing.T) {
	// §VII: coalescing varies modestly (20.2% → 22.8%) from 4MB to 1MB.
	c4 := run(t, Config{Scheme: SchemeCoalescing, LLCKB: 4096}, "gcc").Cycles
	c1 := run(t, Config{Scheme: SchemeCoalescing, LLCKB: 1024}, "gcc").Cycles
	if diff := math.Abs(float64(c1)-float64(c4)) / float64(c4); diff > 0.15 {
		t.Errorf("LLC 1MB vs 4MB differ by %.1f%%, want modest", diff*100)
	}
}

func TestMetadataCacheSweepModest(t *testing.T) {
	// §VII: metadata cache sizes 32KB–256KB change results by ~2%.
	small := run(t, Config{Scheme: SchemeCoalescing, CtrCacheKB: 32, MACCacheKB: 32, BMTCacheKB: 32}, "gcc").Cycles
	big := run(t, Config{Scheme: SchemeCoalescing, CtrCacheKB: 256, MACCacheKB: 256, BMTCacheKB: 256}, "gcc").Cycles
	if diff := math.Abs(float64(small)-float64(big)) / float64(big); diff > 0.10 {
		t.Errorf("MDC sweep differs by %.1f%%, want small", diff*100)
	}
}

func TestResultBookkeeping(t *testing.T) {
	r := run(t, Config{Scheme: SchemeO3}, "gamess")
	if r.Scheme != SchemeO3 || r.Bench != "gamess" {
		t.Fatal("identity fields wrong")
	}
	if r.Instructions != testInstr {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if r.Epochs == 0 || r.Persists == 0 || r.Cycles == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	wantPPKI := float64(r.Persists) / (float64(r.Instructions) / 1000)
	if math.Abs(r.PPKI-wantPPKI) > 1e-9 {
		t.Fatal("PPKI inconsistent")
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p, _ := trace.ProfileByName("gamess")
	Run(Config{Scheme: "nonesuch", Instructions: 1000}, p)
}

func TestSchemesList(t *testing.T) {
	if len(CoreSchemes()) != 6 {
		t.Fatalf("core schemes = %v", CoreSchemes())
	}
	if got := Schemes(); len(got) < 12 {
		t.Fatalf("schemes = %v", got)
	}
	// The core six lead the full list in Table IV order.
	for i, s := range CoreSchemes() {
		if Schemes()[i] != s {
			t.Fatalf("Schemes()[%d] = %s, want %s", i, Schemes()[i], s)
		}
	}
}

func BenchmarkRunO3(b *testing.B) {
	p, _ := trace.ProfileByName("gamess")
	for i := 0; i < b.N; i++ {
		Run(Config{Scheme: SchemeO3, Instructions: 100_000}, p)
	}
}

func TestChainedCoalescingBeatsPaired(t *testing.T) {
	// The idealized chained (union) policy removes at least as many
	// node updates as the paired hardware policy.
	paired := run(t, Config{Scheme: SchemeCoalescing}, "gamess")
	chained := run(t, Config{Scheme: SchemeCoalescing, ChainedCoalescing: true}, "gamess")
	if chained.BMTNodeUpdates > paired.BMTNodeUpdates {
		t.Fatalf("chained updates %d > paired %d", chained.BMTNodeUpdates, paired.BMTNodeUpdates)
	}
	if chained.CoalescingReduction() <= paired.CoalescingReduction() {
		t.Fatalf("chained reduction %.3f <= paired %.3f",
			chained.CoalescingReduction(), paired.CoalescingReduction())
	}
	// And never slower.
	if chained.Cycles > paired.Cycles+paired.Cycles/50 {
		t.Fatalf("chained cycles %d much worse than paired %d", chained.Cycles, paired.Cycles)
	}
}

func TestPersistLatencyHistogram(t *testing.T) {
	r := run(t, Config{Scheme: SchemeSP}, "gamess")
	if r.PersistLatency.Count() != r.Persists {
		t.Fatalf("histogram count %d != persists %d", r.PersistLatency.Count(), r.Persists)
	}
	// Sequential SP persists take at least levels x MAC latency.
	if r.PersistLatency.Mean() < 9*40 {
		t.Fatalf("mean persist latency %.0f below the 360-cycle floor", r.PersistLatency.Mean())
	}
}

func TestPipeliningImprovesWithTreeDepth(t *testing.T) {
	// §IV-A2: "as the memory grows bigger, the BMT will have more
	// levels... the degree of PLP increases and pipelined BMT updates
	// becomes even more effective versus non-pipelined updates."
	speedup := func(levels int) float64 {
		sp := run(t, Config{Scheme: SchemeSP, BMTLevels: levels}, "gamess")
		pipe := run(t, Config{Scheme: SchemePipeline, BMTLevels: levels}, "gamess")
		return float64(sp.Cycles) / float64(pipe.Cycles)
	}
	s5, s9, s12 := speedup(5), speedup(9), speedup(12)
	if !(s5 < s9 && s9 < s12) {
		t.Fatalf("speedup not increasing with depth: %0.2f, %0.2f, %0.2f", s5, s9, s12)
	}
}

func TestColocationAloneDoesNotFixSP(t *testing.T) {
	// §II: co-locating data+counter+MAC (Swami/Liu et al.) makes the
	// non-tree tuple atomic and cheap, but the paper's point stands:
	// the sequential BMT update still dominates, so co-location barely
	// improves on plain sp and remains far worse than pipelining.
	sp := run(t, Config{Scheme: SchemeSP}, "gamess")
	colo := run(t, Config{Scheme: SchemeColocated}, "gamess")
	pipe := run(t, Config{Scheme: SchemePipeline}, "gamess")
	if colo.Cycles > sp.Cycles {
		t.Fatalf("colocated (%d) slower than sp (%d)", colo.Cycles, sp.Cycles)
	}
	if improvement := float64(sp.Cycles) / float64(colo.Cycles); improvement > 1.3 {
		t.Fatalf("colocation improved sp by %.2fx — should be marginal (BMT-bound)", improvement)
	}
	if float64(colo.Cycles) < 2*float64(pipe.Cycles) {
		t.Fatalf("colocated (%d) unexpectedly close to pipelined (%d)", colo.Cycles, pipe.Cycles)
	}
	// It does save NVM write traffic.
	if colo.NVMWrites >= sp.NVMWrites {
		t.Fatalf("colocated writes %d >= sp %d", colo.NVMWrites, sp.NVMWrites)
	}
}

func TestReadVerificationAblation(t *testing.T) {
	// Modelling the load-side verification path adds NVM read traffic
	// but, being overlapped with data use (§VI), perturbs execution
	// time only modestly at realistic miss rates. The stock thrashing
	// profiles' load streams are deliberate worst-case LLC pressure
	// generators (100% miss), so the ablation uses a custom workload
	// with a moderate miss stream instead.
	prof, err := trace.ParseProfileSpec(
		"name=modmiss,ipc=1.5,stores=50,distinct=25,wb=1,loads=4,thrash=1")
	if err != nil {
		t.Fatal(err)
	}
	off := Run(Config{Scheme: SchemeCoalescing, Instructions: testInstr, Warmup: 100_000}, prof)
	on := Run(Config{Scheme: SchemeCoalescing, Instructions: testInstr, Warmup: 100_000,
		ReadVerification: true}, prof)
	if on.NVMReads <= off.NVMReads {
		t.Fatalf("read verification added no NVM reads (%d vs %d)", on.NVMReads, off.NVMReads)
	}
	// Verification never stalls the core directly (§VI), but its reads
	// share the slow PCM read banks with the persist path's metadata
	// fetches, so a moderate inflation from bank contention is the
	// expected (and physically real) outcome.
	ratio := float64(on.Cycles) / float64(off.Cycles)
	if ratio > 1.45 {
		t.Fatalf("read verification inflated cycles %.2fx — contention beyond plausible", ratio)
	}
	if ratio < 1.0 {
		t.Fatalf("read verification sped things up?! %.2fx", ratio)
	}
}

func TestWarmupReducesColdMisses(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	cold := Run(Config{Scheme: SchemeCoalescing, Instructions: 200_000}, p)
	warm := Run(Config{Scheme: SchemeCoalescing, Instructions: 200_000, Warmup: 200_000}, p)
	if warm.CtrHitRate < cold.CtrHitRate {
		t.Fatalf("warmup lowered counter hit rate: %.4f vs %.4f", warm.CtrHitRate, cold.CtrHitRate)
	}
	if warm.Instructions != 200_000 {
		t.Fatalf("measured instructions = %d, warmup leaked into results", warm.Instructions)
	}
}

func TestPhasedWorkloadRuns(t *testing.T) {
	// Bursty phases stress the WPQ and ETT harder than the smooth
	// stream at equal average rates; the simulator must stay
	// deterministic and sane under them.
	p, _ := trace.ProfileByName("gamess")
	src1 := trace.NewPhasedSource(p, trace.Burst(10_000, 40_000, 4))
	src2 := trace.NewPhasedSource(p, trace.Burst(10_000, 40_000, 4))
	a := RunSource(Config{Scheme: SchemeCoalescing, Instructions: testInstr}, p.Name, p.IPC, src1)
	b := RunSource(Config{Scheme: SchemeCoalescing, Instructions: testInstr}, p.Name, p.IPC, src2)
	if a.Cycles != b.Cycles {
		t.Fatal("phased runs nondeterministic")
	}
	if a.Persists == 0 || a.Epochs == 0 {
		t.Fatalf("empty phased run: %+v", a)
	}
}

func TestCoalescingReductionZeroOnNonEpoch(t *testing.T) {
	r := run(t, Config{Scheme: SchemeSP}, "sphinx3")
	if r.CoalescingReduction() != 0 {
		t.Fatal("non-epoch scheme reported coalescing reduction")
	}
}

// TestLLCGeometryOnlyReachesWriteBack pins why the LLC sweep moves
// only the baseline, and why Config.Key may drop the LLC geometry of
// every other run: the data hierarchy is read in the measured region
// only by the write-back scheme (and by ReadVerification, off here), so
// every other scheme returns the same Result at 1 MB/32-way,
// 2 MB/16-way, 256 KB/32-way and 4 MB/32-way, warm-up included.
// secure_WB, the control, must differ somewhere. At 256 KB the LLC
// evicts dirty lines within the window (secure_WB must write some
// back), so a scheme whose persisted stores leaked into a data
// hierarchy would see its evictions there. -short checks every third
// benchmark.
func TestLLCGeometryOnlyReachesWriteBack(t *testing.T) {
	geoms := []struct{ kb, ways int }{{4096, 32}, {1024, 32}, {2048, 16}, {256, 32}}
	const instr, warmup = 100_000, 50_000
	ar := NewArena()
	wbMoved := false
	var small uint64 // secure_WB's writebacks at 256 KB
	for i, p := range trace.Profiles() {
		if testing.Short() && i%3 != 0 {
			continue
		}
		for _, s := range Schemes() {
			var first Result
			for i, g := range geoms {
				cfg := Config{Scheme: s, Instructions: instr, Warmup: warmup, LLCKB: g.kb, LLCWays: g.ways, Arena: ar}
				r := Run(cfg, p)
				if s == SchemeSecureWB && g.kb == 256 {
					small += r.Writebacks
				}
				if i == 0 {
					first = r
					continue
				}
				same := reflect.DeepEqual(r, first)
				if s == SchemeSecureWB {
					wbMoved = wbMoved || !same
				} else if !same {
					t.Errorf("%s/%s: LLC %d KB %d-way changes the Result (%d cycles, %d at 4 MB)", s, p.Name, g.kb, g.ways, r.Cycles, first.Cycles)
				}
			}
		}
	}
	if !wbMoved {
		t.Error("no LLC geometry moved secure_WB on any benchmark; the test would not notice the hierarchy being ignored")
	}
	if small == 0 {
		t.Error("secure_WB wrote no dirty line back at 256 KB; the test would not see a scheme's stores leak into a hierarchy")
	}
}
