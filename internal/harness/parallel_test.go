package harness

import (
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
	origRun, origSrc, origResume := engineRun, engineRunSource, engineResume
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		seen(cfg)
		return origRun(cfg, p)
	}
	engineRunSource = func(cfg engine.Config, bench string, ipc float64, src trace.Source) engine.Result {
		seen(cfg)
		return origSrc(cfg, bench, ipc, src)
	}
	engineResume = func(ck *engine.Checkpoint, cfg engine.Config) (engine.Result, error) {
		seen(cfg)
		return origResume(ck, cfg)
	}
	t.Cleanup(func() { engineRun, engineRunSource, engineResume = origRun, origSrc, origResume })
	for _, id := range Order() {
		mu.Lock()
		driver = id
		mu.Unlock()
		All()[id](Options{Instructions: 20_000, Benches: []string{"gamess"}, Cancel: func() bool { return false }})
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
