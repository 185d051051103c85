package engine

import (
	"context"
	"reflect"
	"testing"

	"plp/internal/trace"
)

// configMutators returns, for every Config field, a function that
// returns base with that field changed to a non-default, semantically
// distinct value; the NVM block has one row per nvm.Config field,
// named "NVM.<field>". It is the one list of Config fields: the key
// tests below walk it and check each row by behaviour, and a field
// added to Config or nvm.Config without a row fails here.
func configMutators(t *testing.T) map[string]func(Config) Config {
	t.Helper()
	m := map[string]func(Config) Config{
		"Scheme":             func(c Config) Config { c.Scheme = SchemeSGXTree; return c },
		"Instructions":       func(c Config) Config { c.Instructions += 10_000; return c },
		"Warmup":             func(c Config) Config { c.Warmup += 5_000; return c },
		"MACLatency":         func(c Config) Config { return c.WithMACLatency(80) },
		"macLatIsZero":       func(c Config) Config { return c.WithMACLatency(0) },
		"BMTLevels":          func(c Config) Config { c.BMTLevels = 7; return c },
		"WPQEntries":         func(c Config) Config { c.WPQEntries = 8; return c },
		"PTTEntries":         func(c Config) Config { c.PTTEntries = 16; return c },
		"ETTSlots":           func(c Config) Config { c.ETTSlots = 4; return c },
		"EpochSize":          func(c Config) Config { c.EpochSize = 64; return c },
		"TriadLevels":        func(c Config) Config { c.TriadLevels = 4; return c },
		"CtrCacheKB":         func(c Config) Config { c.CtrCacheKB = 64; return c },
		"MACCacheKB":         func(c Config) Config { c.MACCacheKB = 64; return c },
		"BMTCacheKB":         func(c Config) Config { c.BMTCacheKB = 64; return c },
		"MDCWays":            func(c Config) Config { c.MDCWays = 4; return c },
		"LLCKB":              func(c Config) Config { c.LLCKB = 2048; return c },
		"LLCWays":            func(c Config) Config { c.LLCWays = 16; return c },
		"IdealMDC":           func(c Config) Config { c.IdealMDC = true; return c },
		"ChainedCoalescing":  func(c Config) Config { c.ChainedCoalescing = true; return c },
		"ReadVerification":   func(c Config) Config { c.ReadVerification = true; return c },
		"FullMemory":         func(c Config) Config { c.FullMemory = true; return c },
		"FlushCyclesPerLine": func(c Config) Config { c.FlushCyclesPerLine = 8; return c },
		"FaultEarlyRootAck":  func(c Config) Config { c.FaultEarlyRootAck = true; return c },
		"NVM.CyclesPerNS":    func(c Config) Config { c.NVM.CyclesPerNS = 3; return c },
		"NVM.ReadNS":         func(c Config) Config { c.NVM.ReadNS = 100; return c },
		"NVM.WriteNS":        func(c Config) Config { c.NVM.WriteNS = 300; return c },
		"NVM.Banks":          func(c Config) Config { c.NVM.Banks = 4; return c },
		"NVM.WriteBusNS":     func(c Config) Config { c.NVM.WriteBusNS = 200; return c },
		"NVM.WriteQueue":     func(c Config) Config { c.NVM.WriteQueue = 2; return c },
		"Observer": func(c Config) Config {
			c.Observer = observerList{}
			return c
		},
		"Arena":  func(c Config) Config { c.Arena = NewArena(); return c },
		"Cancel": func(c Config) Config { c.Cancel = context.Background(); return c },
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name != "NVM" {
			if _, ok := m[f.Name]; !ok {
				t.Fatalf("no mutator for Config.%s — extend configMutators", f.Name)
			}
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			if _, ok := m["NVM."+f.Type.Field(j).Name]; !ok {
				t.Fatalf("no mutator for Config.NVM.%s — extend configMutators", f.Type.Field(j).Name)
			}
		}
	}
	return m
}

// observerList is an Observer whose dynamic type is not comparable,
// like the plp facade's composite observer: comparing two configs that
// hold one panics, so the key tests only ever compare keys.
type observerList []Observer

func (observerList) Persist(PersistRecord) {}
func (observerList) Epoch(EpochRecord)     {}
func (observerList) Sample(Probe)          {}
func (observerList) End(Probe)             {}

// hooks are the Config fields that observe or steer a run without
// changing its timing, so Key drops them.
var hooks = map[string]bool{"Observer": true, "Arena": true, "Cancel": true}

// TestConfigKeyInvalidation: every row of the mutator table changes
// Key except the three hooks, which must leave it equal, and the LLC
// geometry of a run without a data hierarchy (sp, where it simulates
// nothing), which must too; for secure_WB and for sp with
// ReadVerification, which read the hierarchy, the LLC rows change it.
// Defaults and their explicit spellings share a key.
func TestConfigKeyInvalidation(t *testing.T) {
	base := Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}
	mutators := configMutators(t)
	for _, s := range []Scheme{SchemeSP, SchemeSecureWB} {
		b := base
		b.Scheme = s
		for name, mutate := range mutators {
			changed := mutate(b).Key() != b.Key()
			keep := hooks[name] || s == SchemeSP && (name == "LLCKB" || name == "LLCWays")
			if changed == keep {
				t.Errorf("%s, mutating %s: key changed = %v, want %v", s, name, changed, !keep)
			}
		}
	}
	verify := base
	verify.ReadVerification = true
	for _, name := range []string{"LLCKB", "LLCWays"} {
		if mutators[name](verify).Key() == verify.Key() {
			t.Errorf("sp with ReadVerification, mutating %s: key unchanged", name)
		}
	}
	explicit := base.WithMACLatency(40)
	explicit.EpochSize, explicit.LLCKB = 32, 4096
	if explicit.Key() != base.Key() {
		t.Error("explicitly spelling the defaults changed the key")
	}
	overridden := base.WithMACLatency(0)
	overridden.MACLatency = 40
	if overridden.Key() != base.Key() {
		t.Error("an overridden zero MAC latency still splits the key")
	}
}

// TestCheckpointKeyInvalidation: a row that keeps the checkpoint key
// must resume the base checkpoint to exactly its own cold run — so the
// warm-up projection cannot leave out a field warm-up reads. Bench and
// seed are part of the key.
func TestCheckpointKeyInvalidation(t *testing.T) {
	prof := trace.Profiles()[0]
	base := Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}
	baseKey := CheckpointKeyFor(base, prof.Name, prof.Seed)
	ck := newCheckpoint(base, prof)
	shared := 0
	for name, mutate := range configMutators(t) {
		cfg := mutate(base)
		if CheckpointKeyFor(cfg, prof.Name, prof.Seed) != baseKey {
			continue
		}
		shared++
		got, err := ck.Resume(cfg)
		if err != nil {
			t.Errorf("mutating %s kept the checkpoint key but Resume refused it: %v", name, err)
			continue
		}
		if want := Run(cfg, prof); !reflect.DeepEqual(want, got) {
			t.Errorf("mutating %s kept the checkpoint key but the resumed run differs from its cold run", name)
		}
	}
	if shared == 0 {
		t.Error("no row shares the base checkpoint")
	}
	if CheckpointKeyFor(base, "other", prof.Seed) == baseKey || CheckpointKeyFor(base, prof.Name, prof.Seed+1) == baseKey {
		t.Error("bench/seed identity missing from the checkpoint key")
	}
}
