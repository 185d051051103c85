package harness

import (
	"context"
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

// countSims counts, until the test ends, the simulations the harness
// executes through either of its two engine entry points.
func countSims(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	origRun, origResume := engineRun, engineResume
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		n.Add(1)
		return origRun(cfg, p)
	}
	engineResume = func(ck *engine.Checkpoint, cfg engine.Config) (engine.Result, error) {
		n.Add(1)
		return origResume(ck, cfg)
	}
	t.Cleanup(func() { engineRun, engineResume = origRun, origResume })
	return &n
}

// TestMemoSecondPassRunsNoEngine: with a warm memo, a repeated sweep
// must not execute a single engine simulation.
func TestMemoSecondPassRunsNoEngine(t *testing.T) {
	memo := NewMemo(0)
	store := trace.NewStore(0)
	Record(memoTestOpts(memo, store))

	sims := countSims(t)
	Record(memoTestOpts(memo, store))
	if n := sims.Load(); n != 0 {
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

// TestColdRunReadsOneSource pins where a cold run reads its op
// stream. Without a warm-up every point executes through engineRun on
// a pooled arena, reading the arena's recording, and the caller's
// trace store is never touched. With a warm-up and no caller store,
// the runner's own store feeds one checkpoint per benchmark, as a
// caller's store does, every scheme resumes from it, and the sweep is
// bit-identical to a cold one.
func TestColdRunReadsOneSource(t *testing.T) {
	var runs, arenaRuns, resumes atomic.Int64
	origRun, origResume := engineRun, engineResume
	engineRun = func(cfg engine.Config, p trace.Profile) engine.Result {
		runs.Add(1)
		if cfg.Arena != nil {
			arenaRuns.Add(1)
		}
		return origRun(cfg, p)
	}
	engineResume = func(ck *engine.Checkpoint, cfg engine.Config) (engine.Result, error) {
		resumes.Add(1)
		return origResume(ck, cfg)
	}
	t.Cleanup(func() { engineRun, engineResume = origRun, origResume })
	store := trace.NewStore(0)
	plain := memoTestOpts(NewMemo(0), store)
	plain.Warmup = 0
	Record(plain)
	benches := len(plain.Benches)
	points := int64(benches * len(plain.Schemes))
	if st := store.Stats(); st != (trace.StoreStats{}) {
		t.Errorf("a sweep without warm-up used the caller's trace store: %+v", st)
	}
	if runs.Load() != points || arenaRuns.Load() != points || resumes.Load() != 0 {
		t.Errorf("a sweep without warm-up ran %d points through engineRun (%d on an arena) and resumed %d, want all %d on an arena",
			runs.Load(), arenaRuns.Load(), resumes.Load(), points)
	}

	cold := Record(memoTestOpts(nil, nil))
	shared := NewMemo(0)
	Record(memoTestOpts(shared, trace.NewStore(0)))
	runs.Store(0)
	resumes.Store(0)
	own := NewMemo(0)
	warm := Record(memoTestOpts(own, nil))
	if !reflect.DeepEqual(stripTiming(cold), stripTiming(warm)) {
		t.Error("a warmed sweep over the runner's own store diverged from the cold sweep")
	}
	if byRunner, byCaller := own.Stats().CheckpointMisses, shared.Stats().CheckpointMisses; byRunner != uint64(benches) || byCaller != uint64(benches) {
		t.Errorf("checkpoints built: %d over the runner's store, %d over a caller's, want %d each", byRunner, byCaller, benches)
	}
	if runs.Load() != 0 || resumes.Load() != points {
		t.Errorf("a warmed sweep over the runner's store ran %d points and resumed %d, want all %d resumed",
			runs.Load(), resumes.Load(), points)
	}
}

// TestMemoKeyInvalidation: the memo key is the trace identity plus the
// config's Key, so Arena and Cancel never split a key and explicit
// defaults collide, and the LLC geometry splits it only for runs with
// a data hierarchy; a config with an observer is not memoizable. The
// engine's key tests check Key itself field by field.
func TestMemoKeyInvalidation(t *testing.T) {
	base := engine.Config{Scheme: engine.SchemeSP, Instructions: 50_000, Warmup: 10_000}
	baseKey, ok := memoKeyOf(base, "b", 1)
	if !ok {
		t.Fatal("base config must be memoizable")
	}
	if baseKey.Cfg != base.Key() {
		t.Error("memo key does not carry the config's Key")
	}
	hooked := base
	hooked.Arena, hooked.Cancel = engine.NewArena(), context.Background()
	if key, _ := memoKeyOf(hooked, "b", 1); key != baseKey {
		t.Error("Arena or Cancel changed the memo key")
	}
	observed := base
	observed.Observer = telemetry.NewSampler(1000, 0, nil)
	if _, ok := memoKeyOf(observed, "b", 1); ok {
		t.Error("a config with an observer must bypass the memo")
	}
	// Defaults collide with their explicit spellings (Normalized).
	explicit := base
	explicit.MACLatency = 40
	explicit.EpochSize = 32
	if key, _ := memoKeyOf(explicit, "b", 1); key != baseKey {
		t.Error("explicitly spelling the defaults must hit the same key")
	}
	// sp has no data hierarchy, so its LLC geometry simulates nothing
	// and shares the key; secure_WB and ReadVerification read the
	// hierarchy, so theirs splits it.
	smallLLC := base
	smallLLC.LLCKB, smallLLC.LLCWays = 1024, 16
	if key, _ := memoKeyOf(smallLLC, "b", 1); key != baseKey {
		t.Error("sp's LLC geometry split the memo key")
	}
	for _, mutate := range []func(*engine.Config){
		func(c *engine.Config) { c.Scheme = engine.SchemeSecureWB },
		func(c *engine.Config) { c.ReadVerification = true },
	} {
		reader, readerSmall := base, smallLLC
		mutate(&reader)
		mutate(&readerSmall)
		k1, _ := memoKeyOf(reader, "b", 1)
		k2, _ := memoKeyOf(readerSmall, "b", 1)
		if k1 == k2 {
			t.Errorf("%s (ReadVerification %v): the LLC geometry did not split the memo key", reader.Scheme, reader.ReadVerification)
		}
	}
	// Trace identity is part of the key.
	if k, _ := memoKeyOf(base, "other", 1); k == baseKey {
		t.Error("bench missing from memo key")
	}
	if k, _ := memoKeyOf(base, "b", 2); k == baseKey {
		t.Error("seed missing from memo key")
	}
}

// TestMemoLLCSweepSharesHierarchyFreeRuns: coalescing has no data
// hierarchy, so its runs at 1, 2 and 4 MB share one memo key. An
// LLCSweep through a memo therefore executes four simulations per
// benchmark, secure_WB at each size and coalescing once, two fewer
// than one per point, and renders the table a cold LLCSweep renders.
func TestMemoLLCSweepSharesHierarchyFreeRuns(t *testing.T) {
	opts := Options{Instructions: 60_000, Warmup: 20_000, Benches: []string{"gcc", "milc"}}
	cold := LLCSweep(opts)

	sims := countSims(t)
	opts.Memo = NewMemo(0)
	memoized := LLCSweep(opts)
	if want := int64(4 * len(opts.Benches)); sims.Load() != want {
		t.Errorf("memoized LLCSweep executed %d simulations, want %d", sims.Load(), want)
	}
	if memoized.Table.Markdown() != cold.Table.Markdown() || !reflect.DeepEqual(memoized.Summary, cold.Summary) {
		t.Errorf("memoized LLCSweep renders\n%s\ncold\n%s", memoized.Table.Markdown(), cold.Table.Markdown())
	}
}

// TestMemoKeyNVMWriteDrain: configs that differ only in the NVM write
// drain (WriteBusNS, WriteQueue) get distinct memo keys, and each
// memoized result equals its own cold run instead of another config's.
func TestMemoKeyNVMWriteDrain(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	base := engine.Config{Scheme: engine.SchemeCoalescing, Instructions: 100_000}
	bus, queue := base, base
	bus.NVM.WriteBusNS = 200
	queue.NVM.WriteQueue = 2
	r := newRunner(Options{Memo: NewMemo(0)})
	keys := map[MemoKey]bool{}
	for _, cfg := range []engine.Config{base, bus, queue} {
		key, _ := memoKeyOf(cfg, p.Name, p.Seed)
		keys[key] = true
		got, want := r.run(cfg, p), engine.Run(cfg, p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NVM %+v: memoized result differs from its cold run (NVMWrites %d, cold %d)",
				cfg.NVM, got.NVMWrites, want.NVMWrites)
		}
	}
	if len(keys) != 3 {
		t.Errorf("3 write-drain configs share %d memo keys", len(keys))
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
