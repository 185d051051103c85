package engine

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"plp/internal/nvm"
	"plp/internal/trace"
)

// pollFunc is a Canceler driven by a function: every poll of the run
// calls it, and the run stops once it reports true.
type pollFunc func() bool

func (f pollFunc) Err() error {
	if f() {
		return context.Canceled
	}
	return nil
}

// TestCancelHookEquivalence installs a Config.Cancel hook that never
// fires on every scheme and requires the complete Result (histograms,
// attribution, everything) to match the hook-free run exactly. The
// job service threads context cancellation through this hook, so this
// is the proof that job-mode runs are cycle-identical to CLI runs
// when uncancelled.
func TestCancelHookEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	schemes := AllSchemes()
	for _, s := range schemes {
		cfg := Config{Scheme: s, Instructions: 60_000, Warmup: 20_000}
		base := Run(cfg, p)
		var polls atomic.Int64
		cfg.Cancel = pollFunc(func() bool { polls.Add(1); return false })
		hooked := Run(cfg, p)
		if !reflect.DeepEqual(base, hooked) {
			t.Errorf("%s: an unfired cancel hook perturbed the Result", s)
		}
		if polls.Load() == 0 && cfg.Instructions >= cancelPollOps {
			t.Errorf("%s: cancel hook was never polled", s)
		}
	}
}

// TestCancelStopsRun verifies the hook actually halts every scheme
// early: a hook firing from the first poll yields far fewer simulated
// instructions than the configured run length.
func TestCancelStopsRun(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	schemes := AllSchemes()
	for _, s := range schemes {
		var polls int
		cfg := Config{Scheme: s, Instructions: 10_000_000}
		cfg.Cancel = pollFunc(func() bool { polls++; return true })
		res := Run(cfg, p)
		// The first poll lands cancelPollOps ops in and fires, so the
		// run consumes ~4k of the trace's millions of ops: exactly one
		// poll happens and only a sliver of the persists do.
		if polls != 1 {
			t.Errorf("%s: cancelled run polled %d times, want 1", s, polls)
		}
		if res.Persists > cancelPollOps {
			t.Errorf("%s: cancelled run still performed %d persists", s, res.Persists)
		}
	}
}

// TestCancelDeterministic pins that a cancellation at a fixed poll
// count is itself deterministic: the stop point depends only on the
// op stream, never on wall-clock.
func TestCancelDeterministic(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	mk := func() Result {
		var n int
		cfg := Config{Scheme: SchemeCoalescing, Instructions: 10_000_000}
		cfg.Cancel = pollFunc(func() bool { n++; return n > 3 })
		return Run(cfg, p)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Error("cancellation at a fixed poll count is nondeterministic")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config must validate: %v", err)
	}
	for _, s := range AllSchemes() {
		if err := (Config{Scheme: s}).Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	bad := []Config{
		{Scheme: "bogus"},
		{BMTLevels: -1},
		{WPQEntries: -4},
		{PTTEntries: -1},
		{ETTSlots: -2},
		{EpochSize: -32},
		{FlushCyclesPerLine: -1},
		{MDCWays: -8},
		{CtrCacheKB: 7}, // 7KB/8-way: set count not a power of two
		{LLCKB: 3},
		{NVM: nvm.Config{Banks: -1}},
		{NVM: nvm.Config{WriteQueue: -3}},
		{NVM: nvm.Config{CyclesPerNS: -4}},
		{NVM: nvm.Config{ReadNS: math.NaN()}},
		{NVM: nvm.Config{WriteNS: math.Inf(1)}},
		{NVM: nvm.Config{WriteBusNS: -0.5}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated clean, want error", cfg)
		}
	}
}
