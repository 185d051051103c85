package engine

import (
	"testing"

	"plp/internal/trace"
)

// allSchemes is every scheme the engine can run — the full registry,
// including the extensions and rival schemes beyond the paper's six.
var allSchemes = AllSchemes()

func TestAttributionSumsToCycles(t *testing.T) {
	// The core contract of the attribution layer: for every scheme the
	// per-component breakdown sums exactly to Result.Cycles, and the
	// float drift (core-time advances the schemes failed to label) is
	// negligible — this doubles as a consistency check on the timing
	// model's stall accounting.
	for _, bench := range []string{"gamess", "gcc", "astar"} {
		for _, s := range allSchemes {
			r := run(t, Config{Scheme: s}, bench)
			if got := r.Attribution.Total(); got != r.Cycles {
				t.Errorf("%s/%s: attribution sums to %d, cycles %d",
					s, bench, got, r.Cycles)
			}
			if r.AttribDrift > 1.0+1e-6*float64(r.Cycles) {
				t.Errorf("%s/%s: unlabelled core-time drift %.3f cycles",
					s, bench, r.AttribDrift)
			}
			if r.Attribution[CompCompute] == 0 {
				t.Errorf("%s/%s: zero compute cycles", s, bench)
			}
		}
	}
}

func TestAttributionSchemeShapes(t *testing.T) {
	// The breakdown must reproduce the paper's qualitative story of
	// where each scheme's cycles go (§VII).
	sp := run(t, Config{Scheme: SchemeSP}, "gamess")
	pipe := run(t, Config{Scheme: SchemePipeline}, "gamess")
	o3 := run(t, Config{Scheme: SchemeO3}, "gamess")
	sgx := run(t, Config{Scheme: SchemeSGXTree}, "gamess")

	// sp is MAC-bound: the MAC stage dominates its stall cycles.
	if sp.Attribution.Share(CompMAC) < 0.3 {
		t.Errorf("sp MAC share %.2f, want dominant (>0.3)", sp.Attribution.Share(CompMAC))
	}
	// sp's ~45x slowdown means compute is a sliver of its cycles.
	if share := sp.Attribution.Share(CompCompute); share > 0.1 {
		t.Errorf("sp compute share %.2f, want stall-dominated (<0.1)", share)
	}
	// Pipelining moves the MAC off the core's critical path.
	if pipe.Attribution.Share(CompMAC) >= sp.Attribution.Share(CompMAC)/2 {
		t.Errorf("pipeline MAC share %.2f not far below sp's %.2f",
			pipe.Attribution.Share(CompMAC), sp.Attribution.Share(CompMAC))
	}
	// Epoch persistency pays the sfence drain, strict persistency doesn't.
	if o3.Attribution[CompFlush] == 0 {
		t.Error("o3 shows no epoch flush cycles")
	}
	if sp.Attribution[CompFlush] != 0 || pipe.Attribution[CompFlush] != 0 {
		t.Error("strict-persistency schemes report flush cycles")
	}
	// Only sgxtree persists tree nodes on the critical path.
	if sgx.Attribution[CompNVMWrite] == 0 {
		t.Error("sgxtree shows no critical-path NVM write cycles")
	}
	if sp.Attribution[CompNVMWrite] != 0 || o3.Attribution[CompNVMWrite] != 0 {
		t.Error("non-sgxtree schemes report critical-path NVM writes")
	}
}

func TestAttributionIdealMDCCollapsesToCompute(t *testing.T) {
	// Fig. 9's ideal point: free metadata and a zero-cost MAC leave
	// essentially nothing but instruction execution.
	r := run(t, Config{Scheme: SchemeSP, IdealMDC: true}, "gamess")
	if share := r.Attribution.Share(CompCompute); share < 0.95 {
		t.Fatalf("ideal-MDC compute share %.3f, want ~1", share)
	}
	if r.Attribution[CompMAC] != 0 || r.Attribution[CompBMTFetch] != 0 {
		t.Fatalf("ideal-MDC run reports MAC/BMT cycles: %+v", r.Attribution)
	}
}

func TestAttributionComponentsNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Components() {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Fatalf("component %d unnamed", c)
		}
		if seen[name] {
			t.Fatalf("duplicate component name %q", name)
		}
		seen[name] = true
	}
	if Component(NumComponents).String() != "unknown" {
		t.Fatal("out-of-range component not reported unknown")
	}
}

func TestLatencyHistogramsWired(t *testing.T) {
	// WPQ admission waits and epoch latencies surface on the Result.
	o3 := run(t, Config{Scheme: SchemeO3}, "gamess")
	if o3.WPQWaitLatency.Count() == 0 {
		t.Fatal("o3: WPQ wait histogram empty")
	}
	if o3.EpochLatency.Count() != o3.Epochs {
		t.Fatalf("o3: epoch latency samples %d != epochs %d",
			o3.EpochLatency.Count(), o3.Epochs)
	}
	if o3.EpochLatency.Percentile(50) > o3.EpochLatency.Percentile(99) {
		t.Fatal("o3: epoch latency percentiles not monotone")
	}
	sp := run(t, Config{Scheme: SchemeSP}, "gamess")
	if sp.WPQWaitLatency.Count() != sp.Persists {
		t.Fatalf("sp: WPQ wait samples %d != persists %d",
			sp.WPQWaitLatency.Count(), sp.Persists)
	}
	if sp.EpochLatency.Count() != 0 {
		t.Fatal("sp: epoch latency recorded for a non-epoch scheme")
	}
}

func TestDeterministicAttribution(t *testing.T) {
	a := run(t, Config{Scheme: SchemeCoalescing}, "gcc")
	b := run(t, Config{Scheme: SchemeCoalescing}, "gcc")
	if a.Attribution != b.Attribution {
		t.Fatalf("nondeterministic attribution:\n%v\n%v", a.Attribution, b.Attribution)
	}
}

func TestTraceHookObservesPersists(t *testing.T) {
	p, ok := trace.ProfileByName("gamess")
	if !ok {
		t.Fatal("no gamess profile")
	}
	var persists, epochs uint64
	cfg := Config{Scheme: SchemeO3, Instructions: testInstr}
	cfg.Observer = NewTracer(func(ev TraceEvent) {
		switch ev.Kind {
		case "persist":
			persists++
		case "epoch":
			epochs++
		}
	})
	r := Run(cfg, p)
	if persists != r.Persists {
		t.Fatalf("trace saw %d persists, result has %d", persists, r.Persists)
	}
	if epochs != r.Epochs {
		t.Fatalf("trace saw %d epochs, result has %d", epochs, r.Epochs)
	}
	// And the hook costs nothing when nil: identical cycles.
	base := Run(Config{Scheme: SchemeO3, Instructions: testInstr}, p)
	if base.Cycles != r.Cycles {
		t.Fatalf("trace hook perturbed timing: %d vs %d", r.Cycles, base.Cycles)
	}
	if NewTracer(nil) != nil {
		t.Fatal("a nil sink built a tracer; it must be the nil observer")
	}
}
