package engine

import (
	"reflect"
	"testing"

	"plp/internal/trace"
)

// newCheckpoint builds cfg's warm-up checkpoint of prof over a store's
// built recording of the stream, as the harness does.
func newCheckpoint(cfg Config, prof trace.Profile) *Checkpoint {
	n := cfg.Normalized()
	return NewCheckpoint(cfg, prof, trace.NewStore(0).Get(prof, n.Instructions+n.Warmup))
}

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
		ck := newCheckpoint(base, prof)
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
	ck := newCheckpoint(cfg, prof)
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
	ck := newCheckpoint(base, prof)
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

// TestCheckpointFromStoreReplay: a checkpoint replays a store's built
// recording bit-identically to an uninterrupted generator run, whether
// the store's bound caps the recording in the warm-up, in the measured
// region, or not at all: its reader reads the recording in place and
// goes on past its end from the recording's tail generator. A run
// reading the recording directly, with no checkpoint, matches too.
func TestCheckpointFromStoreReplay(t *testing.T) {
	prof := trace.Profiles()[0]
	cfg := Config{Scheme: SchemeO3, Instructions: 40_000, Warmup: 15_000}
	want := Run(cfg, prof)

	for _, maxOps := range []uint64{0, 3_000, 8_000} {
		store := trace.NewStore(0)
		if maxOps > 0 {
			store = trace.NewStore(512 + 16*maxOps)
		}
		rec := store.Get(prof, cfg.Instructions+cfg.Warmup)
		got, err := NewCheckpoint(cfg, prof, rec).Resume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("store capped at %d ops (0 = default): resumed checkpoint diverged from generator run", maxOps)
		}
		if direct := RunSource(cfg, prof.Name, prof.IPC, rec.Reader(prof)); !reflect.DeepEqual(want, direct) {
			t.Fatalf("store capped at %d ops (0 = default): a run reading the recording diverged from generator run", maxOps)
		}
	}
}

// TestCheckpointRefusesArenaRecording: a checkpoint cannot pin a
// position in an arena's recording, whose pages move to the next
// profile, so building one over it panics at once.
func TestCheckpointRefusesArenaRecording(t *testing.T) {
	prof := trace.Profiles()[0]
	ar := NewArena()
	defer func() {
		if recover() == nil {
			t.Fatal("NewCheckpoint accepted an arena's recording")
		}
		if ar.rec.Ops() != 0 {
			t.Errorf("NewCheckpoint warmed over an arena's recording (%d ops recorded) before refusing it", ar.rec.Ops())
		}
	}()
	NewCheckpoint(Config{Instructions: 40_000, Warmup: 15_000}, prof, &ar.rec)
}

// TestCheckpointRejectsDivergedConfig: resuming with a config whose
// checkpoint key differs — any row of the mutator table that changes
// the warm-up projection — is an error, not a silently wrong result.
func TestCheckpointRejectsDivergedConfig(t *testing.T) {
	prof := trace.Profiles()[0]
	base := Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}
	ck := newCheckpoint(base, prof)
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
