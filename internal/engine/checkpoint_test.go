package engine

import (
	"reflect"
	"testing"

	"plp/internal/trace"
)

// TestCheckpointResumeEquivalence is the checkpoint determinism
// contract: for every scheme, with and without a shared Arena,
// Checkpoint→Resume produces the bit-identical Result to an
// uninterrupted RunSource of the same config. Schemes without a data
// hierarchy resume the same checkpoint and skip its hierarchy.
func TestCheckpointResumeEquivalence(t *testing.T) {
	prof := trace.Profiles()[0]
	schemes := AllSchemes()
	for _, arena := range []bool{false, true} {
		var ar *Arena
		if arena {
			ar = NewArena()
		}
		base := Config{Instructions: 60_000, Warmup: 20_000}
		ck, err := NewCheckpoint(base, prof)
		if err != nil {
			t.Fatalf("arena=%v: %v", arena, err)
		}
		for _, s := range schemes {
			cfg := base
			cfg.Scheme = s
			cfg.Arena = ar
			want := Run(cfg, prof)
			got, err := ck.Resume(cfg)
			if err != nil {
				t.Fatalf("arena=%v %s: resume: %v", arena, s, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("arena=%v %s: resumed result diverged from uninterrupted run\nwant %+v\ngot  %+v", arena, s, want, got)
			}
		}
	}
}

// TestCheckpointIsReusable: one checkpoint resumed twice (same config)
// yields identical results — resume does not consume or mutate it.
func TestCheckpointIsReusable(t *testing.T) {
	prof := trace.Profiles()[0]
	cfg := Config{Scheme: SchemeCoalescing, Instructions: 40_000, Warmup: 15_000}
	ck, err := NewCheckpoint(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ck.Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ck.Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("second resume diverged from first")
	}
	if ck.Bytes() == 0 {
		t.Fatal("checkpoint reports zero footprint")
	}
}

// TestCheckpointServesMeasureStageVariants: one checkpoint serves
// configs that differ in knobs warm-up never reads (the cross-scheme,
// cross-latency reuse the sweep memoization depends on).
func TestCheckpointServesMeasureStageVariants(t *testing.T) {
	prof := trace.Profiles()[0]
	base := Config{Instructions: 40_000, Warmup: 15_000}
	ck, err := NewCheckpoint(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Config{
		{Scheme: SchemePipeline, Instructions: 40_000, Warmup: 15_000, WPQEntries: 8},
		{Scheme: SchemeO3, Instructions: 40_000, Warmup: 15_000, EpochSize: 64},
		{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000, MACCacheKB: 32, BMTCacheKB: 32},
		(Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}).WithMACLatency(0),
		{Scheme: SchemeSecureWB, Instructions: 40_000, Warmup: 15_000, FullMemory: true},
		{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000, ReadVerification: true},
	}
	for _, cfg := range variants {
		want := Run(cfg, prof)
		got, err := ck.Resume(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("scheme %s variant diverged from uninterrupted run", cfg.Scheme)
		}
	}
}

// TestCheckpointFromStoreReplay: a checkpoint built over a trace.Store
// replay resumes bit-identically to the generator path — the two
// memoization layers compose. The replay is read in place while it is
// inside its batch and filled from its tail generator past it, so the
// store bounds cap the batch in the warm-up, in the measured region,
// and not at all.
func TestCheckpointFromStoreReplay(t *testing.T) {
	prof := trace.Profiles()[0]
	cfg := Config{Scheme: SchemeO3, Instructions: 40_000, Warmup: 15_000}
	want := Run(cfg, prof)

	for _, maxOps := range []uint64{0, 3_000, 8_000} {
		store := trace.NewStore(0)
		if maxOps > 0 {
			store = trace.NewStore(512 + 16*maxOps)
		}
		batch := store.Get(prof, cfg.Instructions+cfg.Warmup)
		ck, err := NewCheckpointSource(cfg, prof.Name, prof.Seed, prof.IPC, batch.Replay())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ck.Resume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("store capped at %d ops (0 = default): store-replay checkpoint diverged from generator run", maxOps)
		}
		// And the replay itself (no checkpoint) matches too.
		direct := RunSource(cfg, prof.Name, prof.IPC, batch.Replay())
		if !reflect.DeepEqual(want, direct) {
			t.Fatalf("store capped at %d ops (0 = default): store replay run diverged from generator run", maxOps)
		}
	}
}

// TestCheckpointRejectsDivergedConfig: resuming with a config whose
// checkpoint key differs — any row of the mutator table that changes
// the warm-up projection — is an error, not a silently wrong result.
func TestCheckpointRejectsDivergedConfig(t *testing.T) {
	prof := trace.Profiles()[0]
	base := Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}
	ck, err := NewCheckpoint(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for name, mutate := range configMutators(t) {
		cfg := mutate(base)
		if CheckpointKeyFor(cfg, prof.Name, prof.Seed) == ck.Key() {
			continue
		}
		diverged++
		if _, err := ck.Resume(cfg); err == nil {
			t.Errorf("resume accepted config with diverged %s", name)
		}
	}
	// Instructions, Warmup, CtrCacheKB, MDCWays, LLCKB, LLCWays, IdealMDC.
	if diverged != 7 {
		t.Errorf("%d rows change the checkpoint key, want the 7 warm-up fields", diverged)
	}
}
