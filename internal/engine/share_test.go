package engine

import (
	"fmt"
	"reflect"
	"testing"

	"plp/internal/trace"
)

// forget empties ar's recordings, the op stream's and the lookups', so
// the next run on it starts as on a new arena; the arena keeps its
// buffers, which TestArenaReuseEquivalence holds to be invisible.
func forget(ar *Arena) {
	ar.rec = trace.Recording{}
	ar.look = lookupRecording{}
}

// runOrPanic runs cfg over p and reports a panic as an error.
func runOrPanic(cfg Config, p trace.Profile) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return Run(cfg, p), nil
}

// replays reports whether a Run of cfg over p on ar would replay the
// arena's lookup recording.
func replays(cfg Config, p trace.Profile, ar *Arena) bool {
	cfg.fill()
	return specOf(cfg.Scheme).sharesLookups && !cfg.IdealMDC && !cfg.ReadVerification &&
		ar.look.valid && ar.look.key == lookupKeyOf(cfg, p)
}

// TestLookupSharingPairs runs every ordered pair (A, B) of the twelve
// schemes back to back on an arena with nothing recorded, and requires
// both Results to equal the same configs run without an arena. When A
// shares its lookups it records them and a sharing B replays them, so
// a scheme that shares but looks up other lines, or the same lines in
// another order or number, fails here: by a Result that differs, or by
// the replay's end-of-run check. The pairs run on gcc, gamess and milc
// under the default config, full memory, a warm-up, a 32 KB 4-way
// metadata geometry and IdealMDC, which never shares. With -short only
// gcc runs.
func TestLookupSharingPairs(t *testing.T) {
	benches := []string{"gcc", "gamess", "milc"}
	if testing.Short() {
		benches = benches[:1]
	}
	base := Config{Instructions: 50_000}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"plain", base},
		{"full", Config{Instructions: base.Instructions, FullMemory: true}},
		{"warmup", Config{Instructions: base.Instructions, Warmup: 20_000}},
		{"mdc32k4w", Config{Instructions: base.Instructions, CtrCacheKB: 32, MACCacheKB: 32, BMTCacheKB: 32, MDCWays: 4}},
		{"ideal", Config{Instructions: base.Instructions, IdealMDC: true}},
	}
	schemes := AllSchemes()
	sharing := 0
	for _, s := range schemes {
		if specOf(s).sharesLookups {
			sharing++
		}
	}
	for _, name := range benches {
		p, _ := trace.ProfileByName(name)
		for _, v := range variants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				want := make(map[Scheme]Result, len(schemes))
				for _, s := range schemes {
					cfg := v.cfg
					cfg.Scheme = s
					want[s] = Run(cfg, p)
				}
				ar := NewArena()
				replayed := 0
				for _, a := range schemes {
					for _, b := range schemes {
						forget(ar)
						for _, s := range []Scheme{a, b} {
							cfg := v.cfg
							cfg.Scheme, cfg.Arena = s, ar
							if replays(cfg, p, ar) {
								replayed++
							}
							got, err := runOrPanic(cfg, p)
							if err != nil {
								t.Fatalf("%s after %s: %v", b, a, err)
							}
							if !reflect.DeepEqual(got, want[s]) {
								t.Fatalf("%s after %s: %s on the arena differs from its run without one\ngot  %+v\nwant %+v",
									b, a, s, got, want[s])
							}
						}
					}
				}
				wantReplays := sharing * sharing
				if v.cfg.IdealMDC {
					wantReplays = 0
				}
				if replayed != wantReplays {
					t.Fatalf("%d runs replayed lookups, want %d", replayed, wantReplays)
				}
			})
		}
	}
}

// TestLookupSharingCancel: a sharing run that its Canceler stops
// mid-run publishes nothing, so the next sharing run records its own
// lookups; and a replaying run stopped mid-run skips the end-of-run
// check, which its partial lookups would fail, and leaves the
// recording to the runs after it.
func TestLookupSharingCancel(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	cfg := Config{Instructions: 60_000}
	// gcc makes about 0.4 ops per instruction, so the third poll lands
	// about halfway through the run.
	cancelAt := func(poll int) Canceler {
		n := 0
		return pollFunc(func() bool { n++; return n >= poll })
	}
	want := func(s Scheme) Result {
		c := cfg
		c.Scheme = s
		return Run(c, p)
	}
	on := func(ar *Arena, s Scheme, cancel Canceler) (Result, error) {
		c := cfg
		c.Scheme, c.Arena, c.Cancel = s, ar, cancel
		return runOrPanic(c, p)
	}

	ar := NewArena()
	if _, err := on(ar, SchemeSP, cancelAt(3)); err != nil {
		t.Fatalf("cancelled recording run: %v", err)
	}
	if ar.look.valid {
		t.Fatal("a cancelled recording run published its lookups")
	}
	c := cfg
	c.Scheme, c.Arena = SchemePipeline, ar
	if replays(c, p, ar) {
		t.Fatal("the run after a cancelled recording would replay it")
	}
	if got, err := on(ar, SchemePipeline, nil); err != nil || !reflect.DeepEqual(got, want(SchemePipeline)) {
		t.Fatalf("pipeline after a cancelled sp recording: %v, or its Result differs from a run without an arena", err)
	}

	forget(ar)
	if got, err := on(ar, SchemeSP, nil); err != nil || !reflect.DeepEqual(got, want(SchemeSP)) {
		t.Fatalf("recording sp: %v, or its Result differs", err)
	}
	c.Scheme = SchemePipeline
	if !replays(c, p, ar) {
		t.Fatal("pipeline after a completed sp recording would not replay it")
	}
	if _, err := on(ar, SchemePipeline, cancelAt(3)); err != nil {
		t.Fatalf("cancelled replay: %v", err)
	}
	if got, err := on(ar, SchemeShadow, nil); err != nil || !reflect.DeepEqual(got, want(SchemeShadow)) {
		t.Fatalf("shadow after a cancelled replay: %v, or its Result differs", err)
	}
}
