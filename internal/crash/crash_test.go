package crash

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/sim"
)

// TestCampaignClean is the headline soundness sweep: every registered
// scheme — the paper's six, the two extensions, and the four rival
// designs — verifies cleanly at every injected crash point. In short
// mode a bounded sweep runs; the full run covers >= 512 crash points
// per scheme across all 12 schemes (the acceptance bar).
func TestCampaignClean(t *testing.T) {
	cfg := CampaignConfig{Instructions: 20_000, Systematic: 64, Random: 32}
	minPoints := 0
	if !testing.Short() {
		cfg = CampaignConfig{Systematic: 448, Random: 560}
		minPoints = 512
	}
	rep, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(engine.AllSchemes()); len(rep.SchemeReports) != want {
		t.Fatalf("campaign covered %d schemes, want %d", len(rep.SchemeReports), want)
	}
	for _, s := range rep.SchemeReports {
		t.Logf("%-12s guarantee=%-6s points=%-4d persists=%-5d horizon=%d inflight=%d recovery=%s",
			s.Scheme, s.Guarantee, s.Points, s.Persists, s.Horizon, s.MaxInFlight, s.Recovery)
		if s.Guarantee != GuaranteeNone && !s.Recovery.Finite() {
			t.Errorf("%s: recoverable scheme reports no finite recovery estimate", s.Scheme)
		}
		if s.Points < minPoints {
			t.Errorf("%s: swept %d crash points, want >= %d", s.Scheme, s.Points, minPoints)
		}
		for i, f := range s.Failures {
			if i < 3 {
				t.Errorf("%s: crash point %d fails: %v", s.Scheme, f.Case.CrashAt, f.Violations)
			}
		}
		if n := len(s.Failures); n > 3 {
			t.Errorf("%s: ... and %d more failing points", s.Scheme, n-3)
		}
	}
	if !rep.Clean() {
		t.Error("campaign not clean on unmodified schemes")
	}
}

// TestCampaignCatchesEarlyRootAck validates the whole engine against
// the flag-guarded ordering bug: with FaultEarlyRootAck on, the
// campaign of every strict store-persist scheme must report Invariant
// 2 violations, every reported failure must reproduce
// deterministically from its (scheme, trace seed, crash cycle) triple,
// and shrinking must converge to the same minimal counterexample on
// repeated runs.
func TestCampaignCatchesEarlyRootAck(t *testing.T) {
	cfg := CampaignConfig{
		Schemes: []engine.Scheme{engine.SchemeSP, engine.SchemePipeline,
			engine.SchemeSGXTree, engine.SchemeColocated, engine.SchemeTriadSel,
			engine.SchemePhoenix, engine.SchemeShadow, engine.SchemeSuperMemWC},
		Instructions:      20_000,
		Systematic:        128,
		Random:            32,
		FaultEarlyRootAck: true,
	}
	rep, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.SchemeReports {
		if len(s.Failures) == 0 {
			t.Errorf("%s: injected early-root-ack bug not caught over %d points", s.Scheme, s.Points)
			continue
		}
		f := s.Failures[0]
		t.Logf("%s: %d/%d points fail; first: %s", s.Scheme, len(s.Failures), s.Points, f.Case)

		// The repro triple alone must reproduce the exact verdict the
		// campaign recorded (the repro re-runs the case's window on its
		// own and filters its log at the crash cycle).
		v, err := Verify(f.Case, cfg.Levels)
		if err != nil {
			t.Fatalf("%s: repro: %v", s.Scheme, err)
		}
		if !reflect.DeepEqual(v, f) {
			t.Errorf("%s: dedicated repro verdict differs from campaign verdict\nrepro:    %+v\ncampaign: %+v",
				s.Scheme, v, f)
		}

		min1, sv, err := Shrink(f.Case, cfg.Levels)
		if err != nil {
			t.Fatalf("%s: shrink: %v", s.Scheme, err)
		}
		if sv.OK() {
			t.Errorf("%s: shrunk case %s verifies cleanly", s.Scheme, min1)
		}
		if min1.Instructions >= f.Case.Instructions {
			t.Errorf("%s: shrink did not reduce the window (%d -> %d)",
				s.Scheme, f.Case.Instructions, min1.Instructions)
		}
		min2, _, err := Shrink(f.Case, cfg.Levels)
		if err != nil {
			t.Fatalf("%s: second shrink: %v", s.Scheme, err)
		}
		if min1 != min2 {
			t.Errorf("%s: shrink not deterministic: %s vs %s", s.Scheme, min1, min2)
		}
		t.Logf("%s: shrunk to %s", s.Scheme, min1)
	}
}

// TestNegativeControlUnordered pins that the checker itself has teeth:
// the unordered scheme promises nothing (GuaranteeNone — its own sweep
// checks only well-formedness), but forcing the strict guarantee onto
// its snapshots must surface ordering violations, because its root
// updates genuinely complete out of order.
func TestNegativeControlUnordered(t *testing.T) {
	base := Case{Scheme: engine.SchemeUnordered, Bench: "gcc", Instructions: 20_000}
	log, horizon, err := runLog(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, r := range log.Records {
		c := base
		c.CrashAt = r.Done
		snap := snapshotFromLog(c, log, horizon)
		if len(snap.InFlight) == 0 {
			continue
		}
		v := CheckAs(snap, GuaranteeStrict, 0)
		if v.OK() {
			t.Fatalf("crash at %d has %d in-flight elders but strict check passed",
				c.CrashAt, len(snap.InFlight))
		}
		// Under its own (none) guarantee the same snapshot is fine.
		if own := Check(snap, 0); !own.OK() {
			t.Fatalf("crash at %d fails under GuaranteeNone: %v", c.CrashAt, own.Violations)
		}
		caught = true
		break
	}
	if !caught {
		t.Fatal("unordered window exposed no out-of-order completion; negative control is vacuous")
	}
}

// TestSnapshotDeterminism pins the repro contract end to end: equal
// cases yield byte-identical snapshots across independent runs.
func TestSnapshotDeterminism(t *testing.T) {
	for _, scheme := range []engine.Scheme{engine.SchemePipeline, engine.SchemeO3} {
		c := Case{Scheme: scheme, Bench: "gcc", Instructions: 20_000, CrashAt: 15_000}
		a, err := Take(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Take(c)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: two Take runs of %s differ", scheme, c)
		}
		if len(a.Persisted) == 0 {
			t.Errorf("%s: snapshot at cycle %d has no persisted records", scheme, c.CrashAt)
		}
	}
}

// TestReportRegistryRoundTrip pins the JSON artifact: a campaign
// report survives the registry write/load cycle with its repro triples
// intact.
func TestReportRegistryRoundTrip(t *testing.T) {
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Schemes:           []engine.Scheme{engine.SchemePipeline},
		Instructions:      10_000,
		Systematic:        16,
		Random:            8,
		FaultEarlyRootAck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fault campaign unexpectedly clean; round-trip would not cover failures")
	}
	f := rep.RegistryFile("unit")
	path := t.TempDir() + "/crash.json"
	if err := registry.WriteCrash(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := registry.LoadCrash(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Errorf("round-trip mismatch\nwrote:  %+v\nloaded: %+v", f, g)
	}
	if g.Clean || len(g.Schemes) != 1 || len(g.Schemes[0].Failures) == 0 {
		t.Errorf("loaded report lost its failures: %+v", g)
	}
	fc := g.Schemes[0].Failures[0]
	repro := Case{
		Scheme:            engine.Scheme(fc.Scheme),
		Bench:             fc.Bench,
		Instructions:      fc.Instructions,
		CrashAt:           sim.Cycle(fc.CrashAt),
		FaultEarlyRootAck: fc.Fault,
	}
	v, err := Verify(repro, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() {
		t.Errorf("repro triple from the artifact no longer fails: %s", repro)
	}
}

// TestGuarantees pins the scheme-to-contract map against Table II
// (and its extension to the rival schemes). The map below is the
// independent restatement the registry must match: a registration
// that silently changes a contract fails here.
func TestGuarantees(t *testing.T) {
	want := map[engine.Scheme]Guarantee{
		engine.SchemeSecureWB:   GuaranteeStrict,
		engine.SchemeUnordered:  GuaranteeNone,
		engine.SchemeSP:         GuaranteeStrict,
		engine.SchemePipeline:   GuaranteeStrict,
		engine.SchemeO3:         GuaranteeEpoch,
		engine.SchemeCoalescing: GuaranteeEpoch,
		engine.SchemeSGXTree:    GuaranteeStrict,
		engine.SchemeColocated:  GuaranteeStrict,
		// Rival schemes: all strict-persistency designs (their point
		// is recovery time, not a weaker ordering contract).
		engine.SchemeTriadSel:   GuaranteeStrict,
		engine.SchemePhoenix:    GuaranteeStrict,
		engine.SchemeShadow:     GuaranteeStrict,
		engine.SchemeSuperMemWC: GuaranteeStrict,
	}
	all := AllSchemes()
	if len(all) != len(want) {
		t.Fatalf("AllSchemes lists %d schemes, want %d", len(all), len(want))
	}
	for _, s := range all {
		if g := GuaranteeOf(s); g != want[s] {
			t.Errorf("GuaranteeOf(%s) = %s, want %s", s, g, want[s])
		}
	}
}
