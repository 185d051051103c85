package harness

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"plp/internal/engine"
	"plp/internal/trace"
)

// countEngineRuns redirects the baseline's engine.Run through a
// counter for the duration of the test.
func countEngineRuns(t *testing.T) *int64 {
	t.Helper()
	var n int64
	orig := engineRun
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		atomic.AddInt64(&n, 1)
		return orig(cfg, p)
	}
	t.Cleanup(func() { engineRun = orig })
	return &n
}

func TestBaselineComputedOncePerKey(t *testing.T) {
	// Many workers racing for the same uncached baseline must share one
	// computation. Before the singleflight fix, simultaneous first users
	// each ran their own baseline (check-then-recompute); under -race
	// this test also proves the cache itself is data-race-free.
	runs := countEngineRuns(t)
	r := newRunner(Options{Instructions: 100_000})
	p, ok := trace.ProfileByName("gamess")
	if !ok {
		t.Fatal("no gamess profile")
	}
	const workers = 16
	results := make([]engine.Result, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			results[w] = r.baseline(p)
		}(w)
	}
	close(start)
	wg.Wait()
	if got := atomic.LoadInt64(runs); got != 1 {
		t.Fatalf("baseline computed %d times for one key, want 1", got)
	}
	for w := 1; w < workers; w++ {
		if results[w].Cycles != results[0].Cycles {
			t.Fatalf("worker %d saw different baseline: %d vs %d",
				w, results[w].Cycles, results[0].Cycles)
		}
	}
	// A second call is served from cache.
	r.baseline(p)
	if got := atomic.LoadInt64(runs); got != 1 {
		t.Fatalf("cached baseline recomputed (%d runs)", got)
	}
}

func TestBaselineKeyedByFullMemory(t *testing.T) {
	// The full-memory variant is a different baseline and must not share
	// a cache slot with the default one.
	runs := countEngineRuns(t)
	p, _ := trace.ProfileByName("gamess")
	def := newRunner(Options{Instructions: 100_000})
	full := newRunner(Options{Instructions: 100_000, FullMemory: true})
	a := def.baseline(p)
	b := full.baseline(p)
	// secure_WB persists LLC writebacks regardless of the protection
	// mode, so the two baselines time identically — but they are still
	// distinct cache entries and both must actually run.
	if a.Cycles == 0 || b.Cycles == 0 {
		t.Fatal("empty baseline result")
	}
	if got := atomic.LoadInt64(runs); got != 2 {
		t.Fatalf("expected 2 distinct baseline runs, got %d", got)
	}
}

// TestDriversThreadCancel pins that every driver hands the engine its
// Options.Cancel hook: a driver that builds a config without it keeps
// simulating after its job was cancelled.
func TestDriversThreadCancel(t *testing.T) {
	var mu sync.Mutex
	driver := ""
	missed := map[string]bool{}
	seen := func(cfg engine.Config) {
		if cfg.Cancel == nil {
			mu.Lock()
			missed[driver] = true
			mu.Unlock()
		}
	}
	origRun, origResume := engineRun, engineResume
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		seen(cfg)
		return origRun(cfg, p)
	}
	engineResume = func(ck *engine.Checkpoint, cfg engine.Config) (engine.Result, error) {
		seen(cfg)
		return origResume(ck, cfg)
	}
	t.Cleanup(func() { engineRun, engineResume = origRun, origResume })
	for _, id := range Order() {
		mu.Lock()
		driver = id
		mu.Unlock()
		All()[id](Options{Instructions: 20_000, Benches: []string{"gamess"}, Cancel: context.Background()})
	}
	if len(missed) > 0 {
		t.Errorf("drivers ran the engine without Options.Cancel: %v", missed)
	}
}

func TestAttribDriver(t *testing.T) {
	e := Attrib(Options{Instructions: 300_000, Benches: []string{"gamess"}})
	// The breakdown must tell the paper's story: sp MAC-bound, the
	// pipelined scheme not.
	spMAC := e.Summary["mean sp mac share"]
	pipeMAC := e.Summary["mean pipeline mac share"]
	if spMAC < 30 {
		t.Fatalf("sp mac share %.1f%%, want dominant", spMAC)
	}
	if pipeMAC >= spMAC/2 {
		t.Fatalf("pipeline mac share %.1f%% not far below sp's %.1f%%", pipeMAC, spMAC)
	}
	if sp := e.Summary["gmean sp norm"]; sp < 3 {
		t.Fatalf("sp norm gmean %.2f implausibly low", sp)
	}
	out := e.String()
	for _, want := range []string{"sp/gamess", "coalescing/gamess", "mac%", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("attrib output missing %q:\n%s", want, out)
		}
	}
}

// TestIdleArenasChoice pins the idle list's choice rule: a run gets the
// idle arena that holds its profile's recording, else the arena idle
// longest, else a new one.
func TestIdleArenasChoice(t *testing.T) {
	gcc, _ := trace.ProfileByName("gcc")
	gamess, _ := trace.ProfileByName("gamess")
	milc, _ := trace.ProfileByName("milc")
	holding := func(p trace.Profile) *engine.Arena {
		a := engine.NewArena()
		engine.Run(engine.Config{Scheme: engine.SchemeSP, Instructions: 1000, Arena: a}, p)
		return a
	}
	var l idleArenas
	a, b := holding(gcc), holding(gamess)
	l.put(a)
	l.put(b)
	if l.get(gamess) != b {
		t.Fatal("the arena holding gamess was passed over for one idle longer")
	}
	l.put(b)
	if l.get(milc) != a {
		t.Fatal("with no arena holding milc, the one idle longest was not taken")
	}
	if l.get(milc) != b {
		t.Fatal("the last idle arena was not taken")
	}
	if c := l.get(gcc); c == a || c == b {
		t.Fatal("an empty list handed out an arena already lent")
	}
}
