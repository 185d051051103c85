package engine

import (
	"reflect"
	"testing"

	"plp/internal/nvm"
)

// TestDivergenceMapCoversConfig pins the divergence map to the Config
// struct: every field (exported or not) must be classified, and no
// stale names may linger. Adding a Config field without deciding its
// stage fails here instead of silently corrupting memoization caches.
func TestDivergenceMapCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := fieldStages[name]; !ok {
			t.Errorf("Config.%s has no divergence-map entry", name)
		}
	}
	for name := range fieldStages {
		if !seen[name] {
			t.Errorf("divergence map names %s, which Config no longer has", name)
		}
	}
	if got := FieldStages(); !reflect.DeepEqual(got, fieldStages) {
		t.Error("FieldStages copy differs from the map")
	}
	got := FieldStages()
	got["Scheme"] = StageObservational
	if fieldStages["Scheme"] != StageMeasure {
		t.Error("FieldStages returned the live map, not a copy")
	}
}

// TestCheckpointConfigMatchesDivergenceMap: CheckpointConfig must
// mirror exactly the exported Config fields at or before StageWarmup —
// the two declarations cannot drift apart.
func TestCheckpointConfigMatchesDivergenceMap(t *testing.T) {
	ckTyp := reflect.TypeOf(CheckpointConfig{})
	ckFields := map[string]bool{}
	for i := 0; i < ckTyp.NumField(); i++ {
		ckFields[ckTyp.Field(i).Name] = true
	}
	cfgTyp := reflect.TypeOf(Config{})
	for i := 0; i < cfgTyp.NumField(); i++ {
		f := cfgTyp.Field(i)
		early := fieldStages[f.Name] <= StageWarmup
		if early && !ckFields[f.Name] {
			t.Errorf("Config.%s is stage %v but missing from CheckpointConfig", f.Name, fieldStages[f.Name])
		}
		if !early && ckFields[f.Name] {
			t.Errorf("CheckpointConfig.%s is stage %v — too late to belong there", f.Name, fieldStages[f.Name])
		}
		delete(ckFields, f.Name)
	}
	for name := range ckFields {
		t.Errorf("CheckpointConfig.%s does not correspond to any Config field", name)
	}
}

// configMutators returns, for every exported comparable-ish Config
// field, a function that returns base with that field changed to a
// non-default, semantically distinct value. Table-driven invalidation
// tests iterate it so a new Config field automatically demands a
// mutator here (enforced below).
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
		"NVM":                func(c Config) Config { c.NVM = nvm.Config{Banks: 4}; return c },
		"Observer": func(c Config) Config {
			c.Observer = NewTracer(func(TraceEvent) {})
			return c
		},
		"Arena":  func(c Config) Config { c.Arena = NewArena(); return c },
		"Cancel": func(c Config) Config { c.Cancel = func() bool { return false }; return c },
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := m[typ.Field(i).Name]; !ok {
			t.Fatalf("no mutator for Config.%s — extend configMutators", typ.Field(i).Name)
		}
	}
	return m
}

// TestCheckpointKeyInvalidation is the cache-key collision test,
// table-driven over the divergence map: changing any field at or
// before StageWarmup must change CheckpointKeyFor (a forced miss),
// while later-stage fields must leave it untouched (checkpoint reuse).
func TestCheckpointKeyInvalidation(t *testing.T) {
	base := Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}
	baseKey := CheckpointKeyFor(base, "b", 1)
	for name, mutate := range configMutators(t) {
		got := CheckpointKeyFor(mutate(base), "b", 1)
		if fieldStages[name] <= StageWarmup {
			if got == baseKey {
				t.Errorf("mutating %s (stage %v) did not change the checkpoint key", name, fieldStages[name])
			}
		} else if got != baseKey {
			t.Errorf("mutating %s (stage %v) changed the checkpoint key; reuse lost", name, fieldStages[name])
		}
	}
	if CheckpointKeyFor(base, "other", 1) == baseKey || CheckpointKeyFor(base, "b", 2) == baseKey {
		t.Error("bench/seed identity missing from the checkpoint key")
	}
}
