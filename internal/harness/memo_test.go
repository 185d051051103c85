package harness

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// memoTestOpts is a small sweep that exercises warm-up, multiple
// schemes, and telemetry.
func memoTestOpts(memo *Memo, traces *trace.Store) RecordOptions {
	return RecordOptions{
		Options: Options{
			Instructions: 60_000,
			Warmup:       20_000,
			Benches:      []string{trace.Profiles()[0].Name, trace.Profiles()[1].Name},
			Memo:         memo,
			Traces:       traces,
		},
		Schemes: []engine.Scheme{engine.SchemeSecureWB, engine.SchemeSP, engine.SchemeO3},
	}
}

// stripTiming zeroes the wall-clock fields, which legitimately differ
// between cold and memoized runs; everything else must be identical.
func stripTiming(runs []registry.Run) []registry.Run {
	out := append([]registry.Run(nil), runs...)
	for i := range out {
		out[i].WallNS = 0
		out[i].StoresPerSec = 0
	}
	return out
}

// TestMemoizedSweepBitIdentical is the tentpole contract: a sweep with
// the full memo stack (trace store, checkpoints, result memo) produces
// registry runs bit-identical to a cold sweep, both on first (cold
// memo) and second (fully hit) passes.
func TestMemoizedSweepBitIdentical(t *testing.T) {
	cold := Record(memoTestOpts(nil, nil))

	memo := NewMemo(0)
	store := trace.NewStore(0)
	pass1 := Record(memoTestOpts(memo, store))
	pass2 := Record(memoTestOpts(memo, store))

	want := stripTiming(cold)
	if got := stripTiming(pass1); !reflect.DeepEqual(want, got) {
		t.Fatal("memoized pass 1 (cold memo) diverged from unmemoized sweep")
	}
	if got := stripTiming(pass2); !reflect.DeepEqual(want, got) {
		t.Fatal("memoized pass 2 (warm memo) diverged from unmemoized sweep")
	}

	st := memo.Stats()
	points := 2 * 3 // benches x schemes
	if st.Misses != uint64(points) {
		t.Errorf("pass 1 should miss all %d points, got %d misses", points, st.Misses)
	}
	if st.Hits != uint64(points) {
		t.Errorf("pass 2 should hit all %d points, got %d hits", points, st.Hits)
	}
	if st.CheckpointMisses != 2 || st.CheckpointHits == 0 {
		t.Errorf("want 1 checkpoint build per bench and >0 reuses, got %d/%d",
			st.CheckpointMisses, st.CheckpointHits)
	}
	ts := store.Stats()
	if ts.Misses != 2 {
		t.Errorf("want 1 trace materialization per bench, got %d", ts.Misses)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

// TestMemoSecondPassRunsNoEngine: with a warm memo, a repeated sweep
// must not execute a single engine simulation.
func TestMemoSecondPassRunsNoEngine(t *testing.T) {
	memo := NewMemo(0)
	store := trace.NewStore(0)
	Record(memoTestOpts(memo, store))

	var runs, sourceRuns, resumes atomic.Int64
	origRun, origSrc, origResume := engineRun, engineRunSource, engineResume
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		runs.Add(1)
		return origRun(cfg, p)
	}
	engineRunSource = func(cfg engine.Config, bench string, ipc float64, src trace.Source) engine.Result {
		sourceRuns.Add(1)
		return origSrc(cfg, bench, ipc, src)
	}
	engineResume = func(ck *engine.Checkpoint, cfg engine.Config) (engine.Result, error) {
		resumes.Add(1)
		return origResume(ck, cfg)
	}
	defer func() { engineRun, engineRunSource, engineResume = origRun, origSrc, origResume }()

	Record(memoTestOpts(memo, store))
	if n := runs.Load() + sourceRuns.Load() + resumes.Load(); n != 0 {
		t.Fatalf("warm-memo sweep executed %d engine runs, want 0", n)
	}
}

// TestMemoColdPassUsesResume: on a cold memo with warm-up configured,
// every measured run goes through the checkpoint-resume path — the
// warm-up work is paid once per bench, not once per (bench, scheme).
func TestMemoColdPassUsesResume(t *testing.T) {
	var runs, resumes atomic.Int64
	origRun, origResume := engineRun, engineResume
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		runs.Add(1)
		return origRun(cfg, p)
	}
	engineResume = func(ck *engine.Checkpoint, cfg engine.Config) (engine.Result, error) {
		resumes.Add(1)
		return origResume(ck, cfg)
	}
	defer func() { engineRun, engineResume = origRun, origResume }()

	Record(memoTestOpts(NewMemo(0), trace.NewStore(0)))
	if runs.Load() != 0 {
		t.Errorf("%d runs bypassed the memo stack", runs.Load())
	}
	if resumes.Load() != 6 {
		t.Errorf("want 6 checkpoint resumes (2 benches x 3 schemes), got %d", resumes.Load())
	}
}

// TestMemoKeyInvalidation: every semantic Config difference must map
// to a distinct memo key; observational differences must not.
func TestMemoKeyInvalidation(t *testing.T) {
	base := engine.Config{Scheme: engine.SchemeSP, Instructions: 50_000, Warmup: 10_000}
	baseKey, ok := memoKeyOf(base, "b", 1)
	if !ok {
		t.Fatal("base config must be memoizable")
	}
	stages := engine.FieldStages()
	for name, mutate := range configMutatorsHarness() {
		cfg := mutate(base)
		key, ok := memoKeyOf(cfg, "b", 1)
		semantic := stages[name] <= engine.StageMeasure
		if !ok {
			if semantic {
				t.Errorf("mutating %s made the config unmemoizable; expected a key change", name)
			}
			continue // unmemoizable observational configs can never collide
		}
		if semantic && key == baseKey {
			t.Errorf("mutating %s (semantic) did not change the memo key", name)
		}
		if !semantic && key != baseKey {
			t.Errorf("mutating %s (observational) changed the memo key", name)
		}
	}
	// Defaults collide with their explicit spellings (Normalized).
	explicit := base
	explicit.MACLatency = 40
	explicit.EpochSize = 32
	if key, _ := memoKeyOf(explicit, "b", 1); key != baseKey {
		t.Error("explicitly spelling the defaults must hit the same key")
	}
	// Trace identity is part of the key.
	if k, _ := memoKeyOf(base, "other", 1); k == baseKey {
		t.Error("bench missing from memo key")
	}
	if k, _ := memoKeyOf(base, "b", 2); k == baseKey {
		t.Error("seed missing from memo key")
	}
}

// configMutatorsHarness mirrors the engine's mutator table for the
// fields the memo key must discriminate. Kept separately (not
// exported from the engine tests) but pinned to the same Config
// reflection check, so a new field fails both packages' tests.
func configMutatorsHarness() map[string]func(engine.Config) engine.Config {
	return map[string]func(engine.Config) engine.Config{
		"Scheme":             func(c engine.Config) engine.Config { c.Scheme = engine.SchemeSGXTree; return c },
		"Instructions":       func(c engine.Config) engine.Config { c.Instructions += 10_000; return c },
		"Warmup":             func(c engine.Config) engine.Config { c.Warmup += 5_000; return c },
		"MACLatency":         func(c engine.Config) engine.Config { return c.WithMACLatency(80) },
		"macLatIsZero":       func(c engine.Config) engine.Config { return c.WithMACLatency(0) },
		"BMTLevels":          func(c engine.Config) engine.Config { c.BMTLevels = 7; return c },
		"WPQEntries":         func(c engine.Config) engine.Config { c.WPQEntries = 8; return c },
		"PTTEntries":         func(c engine.Config) engine.Config { c.PTTEntries = 16; return c },
		"ETTSlots":           func(c engine.Config) engine.Config { c.ETTSlots = 4; return c },
		"EpochSize":          func(c engine.Config) engine.Config { c.EpochSize = 64; return c },
		"TriadLevels":        func(c engine.Config) engine.Config { c.TriadLevels = 4; return c },
		"CtrCacheKB":         func(c engine.Config) engine.Config { c.CtrCacheKB = 64; return c },
		"MACCacheKB":         func(c engine.Config) engine.Config { c.MACCacheKB = 64; return c },
		"BMTCacheKB":         func(c engine.Config) engine.Config { c.BMTCacheKB = 64; return c },
		"MDCWays":            func(c engine.Config) engine.Config { c.MDCWays = 4; return c },
		"LLCKB":              func(c engine.Config) engine.Config { c.LLCKB = 2048; return c },
		"LLCWays":            func(c engine.Config) engine.Config { c.LLCWays = 16; return c },
		"IdealMDC":           func(c engine.Config) engine.Config { c.IdealMDC = true; return c },
		"ChainedCoalescing":  func(c engine.Config) engine.Config { c.ChainedCoalescing = true; return c },
		"ReadVerification":   func(c engine.Config) engine.Config { c.ReadVerification = true; return c },
		"FullMemory":         func(c engine.Config) engine.Config { c.FullMemory = true; return c },
		"FlushCyclesPerLine": func(c engine.Config) engine.Config { c.FlushCyclesPerLine = 8; return c },
		"FaultEarlyRootAck":  func(c engine.Config) engine.Config { c.FaultEarlyRootAck = true; return c },
		"NVM": func(c engine.Config) engine.Config {
			c.NVM.Banks = 4
			return c
		},
		"Observer": func(c engine.Config) engine.Config {
			c.Observer = telemetry.NewSampler(1000, 0, nil)
			return c
		},
		"Arena": func(c engine.Config) engine.Config { c.Arena = engine.NewArena(); return c },
		"Cancel": func(c engine.Config) engine.Config {
			c.Cancel = func() bool { return false }
			return c
		},
	}
}

// TestMemoMutatorTableComplete pins configMutatorsHarness to the
// Config struct via reflection, like the engine-side table.
func TestMemoMutatorTableComplete(t *testing.T) {
	typ := reflect.TypeOf(engine.Config{})
	m := configMutatorsHarness()
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := m[typ.Field(i).Name]; !ok {
			t.Errorf("no mutator for engine.Config.%s", typ.Field(i).Name)
		}
	}
}

// TestMemoSingleflight: racing requesters of one key share exactly one
// execution.
func TestMemoSingleflight(t *testing.T) {
	memo := NewMemo(0)
	key, _ := memoKeyOf(engine.Config{Scheme: engine.SchemeSP, Instructions: 1000}, "b", 1)
	var execs atomic.Int64
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			memo.Run(key, func() (engine.Result, *telemetry.Series, bool) {
				execs.Add(1)
				return engine.Result{Cycles: 42}, nil, true
			})
		}()
	}
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("%d executions for one key, want 1", execs.Load())
	}
	st := memo.Stats()
	if st.Hits != workers-1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want %d hits / 1 miss", st, workers-1)
	}
}

// TestMemoCancelledRunNotStored: a run whose exec reports ok=false is
// never served to later requesters.
func TestMemoCancelledRunNotStored(t *testing.T) {
	memo := NewMemo(0)
	key, _ := memoKeyOf(engine.Config{Scheme: engine.SchemeSP, Instructions: 1000}, "b", 1)
	res, _, hit := memo.Run(key, func() (engine.Result, *telemetry.Series, bool) {
		return engine.Result{Cycles: 1}, nil, false // cancelled
	})
	if hit || res.Cycles != 1 {
		t.Fatalf("cancelled exec result mishandled: hit=%v res=%+v", hit, res)
	}
	res, _, hit = memo.Run(key, func() (engine.Result, *telemetry.Series, bool) {
		return engine.Result{Cycles: 2}, nil, true
	})
	if hit || res.Cycles != 2 {
		t.Fatalf("entry after cancel was served stale: hit=%v res=%+v", hit, res)
	}
	res, _, hit = memo.Run(key, func() (engine.Result, *telemetry.Series, bool) {
		t.Fatal("third request must hit")
		return engine.Result{}, nil, true
	})
	if !hit || res.Cycles != 2 {
		t.Fatalf("want hit on stored result, got hit=%v res=%+v", hit, res)
	}
	if memo.Stats().Cancelled != 1 {
		t.Fatalf("cancelled count = %d, want 1", memo.Stats().Cancelled)
	}
}

// TestMemoEviction: the byte bound evicts result entries before
// checkpoints.
func TestMemoEviction(t *testing.T) {
	memo := NewMemo(4096) // tiny: a couple of result entries
	mk := func(i uint64) MemoKey {
		k, _ := memoKeyOf(engine.Config{Scheme: engine.SchemeSP, Instructions: 1000 + i}, "b", 1)
		return k
	}
	for i := uint64(0); i < 8; i++ {
		memo.Run(mk(i), func() (engine.Result, *telemetry.Series, bool) {
			return engine.Result{Cycles: 1}, nil, true
		})
	}
	st := memo.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with bound 4096: %+v", st)
	}
	if st.Bytes > 4096 {
		t.Fatalf("resident bytes %d exceed bound", st.Bytes)
	}
}

// TestPoolProbeNoStarvation is the Fan occupancy satellite: threading
// a probe through a fan-out lets callers assert that the queue fully
// drains, every item completes, and the pool actually reached its
// configured width (no worker starvation).
func TestPoolProbeNoStarvation(t *testing.T) {
	var probe PoolProbe
	const n, workers = 64, 4
	// Gate the first `workers` items so all workers are provably busy
	// at once before any finishes.
	var mu sync.Mutex
	started := 0
	full := make(chan struct{})
	gate := make(chan struct{})
	FanProbe(n, workers, &probe, func(i int) {
		mu.Lock()
		started++
		if started == workers {
			close(full)
		}
		mu.Unlock()
		if i < n { // every item waits for the pool to fill once
			select {
			case <-full:
			case <-gate:
			}
		}
	})
	close(gate)
	if got := probe.Completed(); got != n {
		t.Errorf("completed %d items, want %d", got, n)
	}
	if got := probe.Queued(); got != 0 {
		t.Errorf("queue depth %d after drain, want 0", got)
	}
	if got := probe.Running(); got != 0 {
		t.Errorf("running %d after drain, want 0", got)
	}
	if got := probe.MaxRunning(); got != workers {
		t.Errorf("max running %d, want the full pool width %d", got, workers)
	}
	if got := probe.Workers(); got != workers {
		t.Errorf("workers %d, want %d", got, workers)
	}
	// Nil probes are no-ops everywhere.
	var nilProbe *PoolProbe
	Fan(3, 2, func(int) {})
	if nilProbe.Queued() != 0 || nilProbe.MaxRunning() != 0 || nilProbe.Completed() != 0 {
		t.Error("nil probe must read as zero")
	}
}
