package registry

import (
	"path/filepath"
	"strings"
	"testing"

	"plp/internal/engine"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

func testRun(t *testing.T, scheme engine.Scheme, bench string) Run {
	t.Helper()
	prof, ok := trace.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown profile %q", bench)
	}
	sampler := telemetry.NewSampler(8192, 0, engine.ComponentLabels())
	res := engine.Run(engine.Config{
		Scheme: scheme, Instructions: 50_000, Observer: sampler,
	}, prof)
	snap := sampler.Snapshot()
	return FromResult(res, &snap)
}

func TestFromResultAttribution(t *testing.T) {
	r := testRun(t, engine.SchemeSP, "gamess")
	var sum uint64
	for _, v := range r.Attribution {
		sum += v
	}
	if sum != r.Cycles {
		t.Fatalf("attribution sums to %d, cycles = %d", sum, r.Cycles)
	}
	if r.Key() != "sp/gamess" {
		t.Fatalf("key = %q, want sp/gamess", r.Key())
	}
	if r.Telemetry == nil || len(r.Telemetry.Windows) == 0 {
		t.Fatal("telemetry series missing from run")
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	f := New("test", 50_000, false)
	f.Runs = []Run{
		testRun(t, engine.SchemeSP, "gcc"),
		testRun(t, engine.SchemeSP, "gamess"),
	}
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Version != Version || g.Tag != "test" || len(g.Runs) != 2 {
		t.Fatalf("round trip: version=%d tag=%q runs=%d", g.Version, g.Tag, len(g.Runs))
	}
	// Write sorts by (bench, scheme).
	if g.Runs[0].Bench != "gamess" || g.Runs[1].Bench != "gcc" {
		t.Fatalf("runs not sorted: %s, %s", g.Runs[0].Bench, g.Runs[1].Bench)
	}
	if got := g.Find("sp", "gcc"); got == nil || got.Cycles != f.Runs[1].Cycles {
		t.Fatal("Find after round trip lost the run")
	}
	if g.Runs[0].Telemetry == nil {
		t.Fatal("telemetry series lost in round trip")
	}
}

func TestLoadRejectsNewerVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v99.json")
	f := New("future", 1, false)
	f.Version = 99
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a schema version from the future")
	}
}

func mkFile(tag string, runs ...Run) *File {
	f := New(tag, 1000, false)
	f.Runs = runs
	return f
}

func run(scheme, bench string, cycles uint64) Run {
	return Run{Scheme: scheme, Bench: bench, Cycles: cycles}
}

func TestCompareClassification(t *testing.T) {
	old := mkFile("old",
		run("sp", "a", 1000),
		run("sp", "b", 1000),
		run("sp", "c", 1000),
		run("sp", "gone", 1000),
	)
	new_ := mkFile("new",
		run("sp", "a", 1000), // unchanged
		run("sp", "b", 1100), // +10% regression
		run("sp", "c", 900),  // -10% improvement
		run("sp", "extra", 500),
	)
	rep := Compare(old, new_, 0.02)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Bench != "b" {
		t.Fatalf("regressions = %+v, want exactly sp/b", rep.Regressions)
	}
	if len(rep.Improvements) != 1 || rep.Improvements[0].Bench != "c" {
		t.Fatalf("improvements = %+v, want exactly sp/c", rep.Improvements)
	}
	if rep.Unchanged != 1 {
		t.Fatalf("unchanged = %d, want 1", rep.Unchanged)
	}
	if len(rep.MissingInNew) != 1 || rep.MissingInNew[0] != "sp/gone" {
		t.Fatalf("missing = %v, want [sp/gone]", rep.MissingInNew)
	}
	if len(rep.OnlyInNew) != 1 || rep.OnlyInNew[0] != "sp/extra" {
		t.Fatalf("only-in-new = %v, want [sp/extra]", rep.OnlyInNew)
	}
	if !rep.Failed() {
		t.Fatal("report with a regression and a missing run must fail")
	}
	s := rep.String()
	for _, want := range []string{"REGRESSED", "improved", "sp/gone", "sp/extra", "+10.00%", "-10.00%"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

// TestCompareZeroBaseline pins the new-metric path: a run whose
// baseline recorded zero cycles has no ratio to take, so the report
// must say "new metric" — never NaN, Inf, or a made-up percentage —
// while still gating as a regression. Two zero sides stay unchanged.
func TestCompareZeroBaseline(t *testing.T) {
	a := mkFile("a", run("sp", "x", 0), run("sp", "y", 0))
	b := mkFile("b", run("sp", "x", 500), run("sp", "y", 0))
	rep := Compare(a, b, 0.02)
	if len(rep.Regressions) != 1 || !rep.Regressions[0].NewMetric {
		t.Fatalf("zero->nonzero must gate as a new-metric regression: %+v", rep.Regressions)
	}
	if rep.Unchanged != 1 {
		t.Fatalf("zero->zero must be unchanged, got %d", rep.Unchanged)
	}
	if !rep.Failed() {
		t.Fatal("a new metric must fail the comparison")
	}
	s := rep.String()
	if !strings.Contains(s, "new metric") {
		t.Errorf("report does not flag the new metric:\n%s", s)
	}
	for _, banned := range []string{"NaN", "Inf", "+100.00%"} {
		if strings.Contains(s, banned) {
			t.Errorf("report renders %q for a zero baseline:\n%s", banned, s)
		}
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	f := mkFile("x", run("sp", "a", 1000), run("o3", "a", 800))
	rep := Compare(f, f, 0.02)
	if rep.Failed() || len(rep.Regressions) != 0 || rep.Unchanged != 2 {
		t.Fatalf("identical files must pass cleanly: %+v", rep)
	}
}

func TestCompareConfigMismatch(t *testing.T) {
	a := mkFile("a", run("sp", "x", 1000))
	b := mkFile("b", run("sp", "x", 1000))
	b.Instructions = 2000
	rep := Compare(a, b, 0.02)
	if !rep.ConfigMismatch || !rep.Failed() {
		t.Fatal("differing instruction counts must force a config-mismatch failure")
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	a := mkFile("a", run("sp", "x", 1000))
	b := mkFile("b", run("sp", "x", 1015)) // +1.5% < 2%
	rep := Compare(a, b, 0.02)
	if len(rep.Regressions) != 0 || rep.Unchanged != 1 {
		t.Fatalf("+1.5%% at 2%% threshold must be unchanged: %+v", rep)
	}
}

// Report.String must be byte-identical across calls (it is diffed in
// CI logs) — ranging over maps anywhere in Compare would break this.
func TestCompareDeterministicReport(t *testing.T) {
	old := mkFile("old")
	new_ := mkFile("new")
	for _, b := range []string{"m", "a", "z", "k"} {
		for _, s := range []string{"sp", "o3", "pipeline"} {
			old.Runs = append(old.Runs, run(s, b, 1000))
			new_.Runs = append(new_.Runs, run(s, b, 1500))
		}
	}
	first := Compare(old, new_, 0.02).String()
	for i := 0; i < 10; i++ {
		if got := Compare(old, new_, 0.02).String(); got != first {
			t.Fatalf("report differs between runs:\n%s\nvs\n%s", got, first)
		}
	}
}

func TestCompareWarmupMismatch(t *testing.T) {
	a := mkFile("a", run("sp", "x", 1000))
	b := mkFile("b", run("sp", "x", 1000))
	b.Warmup = 500_000
	rep := Compare(a, b, 0.02)
	if !rep.ConfigMismatch || !rep.Failed() {
		t.Fatal("differing warm-up must force a config-mismatch failure")
	}
}

// Identical is the memoization gate: exact equality modulo wall clock.
func TestIdentical(t *testing.T) {
	a := mkFile("cold", run("sp", "x", 1000), run("o3", "x", 900))
	b := mkFile("warm", run("sp", "x", 1000), run("o3", "x", 900))
	// Wall-clock fields may differ freely.
	b.Runs[0].WallNS, b.Runs[0].StoresPerSec = 123456, 1e6
	if diffs := Identical(a, b); len(diffs) != 0 {
		t.Fatalf("timing-only differences must be ignored: %v", diffs)
	}
	// One cycle off is a failure even at any threshold.
	b.Runs[1].Cycles = 901
	diffs := Identical(a, b)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "900 vs 901") {
		t.Fatalf("want exactly one cycle diff, got %v", diffs)
	}
	// Missing and extra runs are both surfaced.
	c := mkFile("warm", run("sp", "x", 1000), run("pipeline", "x", 700))
	diffs = Identical(a, c)
	if len(diffs) != 2 {
		t.Fatalf("want missing+extra, got %v", diffs)
	}
	// Config differences gate too.
	d := mkFile("warm", run("sp", "x", 1000), run("o3", "x", 900))
	d.Warmup = 1
	if diffs := Identical(a, d); len(diffs) != 1 || !strings.Contains(diffs[0], "warmup") {
		t.Fatalf("want a warmup diff, got %v", diffs)
	}
}

func TestMemoInfoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_memo.json")
	f := New("memo", 1000, false)
	f.Warmup = 500
	f.Memo = &MemoInfo{Passes: 2, Hits: 6, Misses: 6, HitRate: 0.5,
		CheckpointMisses: 2, TraceMisses: 2,
		ColdWallNS: 2e9, WarmWallNS: 1e9, Speedup: 2}
	f.Runs = []Run{run("sp", "x", 1000)}
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Warmup != 500 || g.Memo == nil || g.Memo.Speedup != 2 || g.Memo.Hits != 6 {
		t.Fatalf("memo info lost in round trip: warmup=%d memo=%+v", g.Warmup, g.Memo)
	}
}
