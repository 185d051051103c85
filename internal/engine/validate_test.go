package engine

import (
	"math"
	"testing"

	"plp/internal/nvm"
)

// TestValidateAllocatesNothing: validating a config checks the cache
// geometries and the tree shape without building them, so the job
// service's per-scheme submit check costs no garbage.
func TestValidateAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Config{}.Validate() }); n != 0 {
		t.Errorf("Config{}.Validate() allocates %.0f objects, want 0", n)
	}
	for _, s := range Schemes() {
		cfg := Config{Scheme: s}
		if n := testing.AllocsPerRun(20, func() { _ = cfg.Validate() }); n != 0 {
			t.Errorf("%s: Validate allocates %.0f objects, want 0", s, n)
		}
	}
}

// TestValidateRejections pins the error each rejected config returns,
// the cache and tree geometry rules included.
func TestValidateRejections(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Scheme: "bogus"}, `engine: unknown scheme "bogus" (known: [secure_WB unordered sp pipeline o3 coalescing sgxtree colocated triad_sel phoenix shadow supermem_wc])`},
		{Config{Instructions: math.MaxUint64, Warmup: 1}, "engine: Instructions + Warmup overflow, got 18446744073709551615 + 1"},
		{Config{BMTLevels: -1}, "engine: bmt: levels must be >= 1, got -1"},
		{Config{WPQEntries: -4}, "engine: WPQEntries must be >= 1, got -4"},
		{Config{PTTEntries: -1}, "engine: PTTEntries must be >= 1, got -1"},
		{Config{ETTSlots: -2}, "engine: ETTSlots must be >= 1, got -2"},
		{Config{EpochSize: -32}, "engine: EpochSize must be >= 1, got -32"},
		{Config{Scheme: SchemeTriadSel, TriadLevels: 10}, "engine: TriadLevels must be in [1, BMTLevels=9], got 10"},
		{Config{FlushCyclesPerLine: -1}, "engine: FlushCyclesPerLine must be >= 0, got -1"},
		{Config{MDCWays: -8}, "engine: MDCWays must be >= 1, got -8"},
		{Config{CtrCacheKB: 7}, "engine: cache ctr: set count 14 not a power of two"},
		{Config{MACCacheKB: -1}, "engine: cache mac: non-positive geometry"},
		{Config{BMTCacheKB: 3}, "engine: cache bmt: set count 6 not a power of two"},
		{Config{MDCWays: 3}, "engine: cache ctr: 2048 lines not divisible by 3 ways"},
		{Config{LLCKB: 3}, "engine: cache llc: 48 lines not divisible by 32 ways"},
		{Config{LLCWays: -1}, "engine: cache llc: non-positive geometry"},
		{Config{LLCKB: 1 << 20}, "engine: cache llc: 16777216 lines exceed the 8388608-line bound"},
		{Config{CtrCacheKB: 1 << 20}, "engine: cache ctr: 16777216 lines exceed the 8388608-line bound"},
		{Config{NVM: nvm.Config{Banks: -1}}, "engine: NVM Banks and WriteQueue must be >= 0, got -1 and 0"},
		{Config{NVM: nvm.Config{WriteQueue: -3}}, "engine: NVM Banks and WriteQueue must be >= 0, got 0 and -3"},
		{Config{NVM: nvm.Config{CyclesPerNS: -4}}, "engine: NVM CyclesPerNS must be finite and >= 0, got -4"},
		{Config{NVM: nvm.Config{ReadNS: math.NaN()}}, "engine: NVM ReadNS must be finite and >= 0, got NaN"},
		{Config{NVM: nvm.Config{WriteNS: math.Inf(1)}}, "engine: NVM WriteNS must be finite and >= 0, got +Inf"},
		{Config{NVM: nvm.Config{WriteBusNS: -0.5}}, "engine: NVM WriteBusNS must be finite and >= 0, got -0.5"},
	} {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%+v validated clean, want %q", c.cfg, c.want)
		} else if err.Error() != c.want {
			t.Errorf("%+v: got %q, want %q", c.cfg, err, c.want)
		}
	}
}
