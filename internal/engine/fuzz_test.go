package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"plp/internal/nvm"
	"plp/internal/sim"
	"plp/internal/trace"
)

// fuzzConfig decodes knobs into a config, one byte per field in the
// order below. Each byte picks from a small range that includes the
// default and, for signed fields, zero and a negative value; a field
// past the end of knobs takes the first value of its range, the
// default. Runs stay at most 20k instructions, so one input runs all
// twelve schemes in well under a second.
func fuzzConfig(knobs []byte) (Config, trace.Profile) {
	next := func() int {
		if len(knobs) == 0 {
			return 0
		}
		b := knobs[0]
		knobs = knobs[1:]
		return int(b)
	}
	pick := func(vals ...int) int { return vals[next()%len(vals)] }
	profs := trace.Profiles()
	prof := profs[next()%len(profs)]
	cfg := Config{
		Instructions:       uint64(1_000 + pick(0, 4_000, 19_000)),
		Warmup:             uint64(pick(0, 2_000, 10_000)),
		BMTLevels:          pick(0, -1, 1, 2, 5, 12),
		WPQEntries:         pick(0, -1, 1, 3),
		PTTEntries:         pick(0, -1, 1, 5),
		ETTSlots:           pick(0, -1, 1, 3),
		EpochSize:          pick(0, -1, 1, 7),
		TriadLevels:        pick(0, -1, 1, 3, 20),
		CtrCacheKB:         pick(0, -1, 3, 8, 32),
		MACCacheKB:         pick(0, -1, 3, 8, 32),
		BMTCacheKB:         pick(0, -1, 3, 8, 32),
		MDCWays:            pick(0, -1, 1, 3, 16),
		LLCKB:              pick(0, -1, 3, 256, 1024),
		LLCWays:            pick(0, -1, 1, 3, 16),
		FlushCyclesPerLine: pick(0, -1, 1, 100),
	}
	if lat := pick(-1, 0, 1, 80); lat >= 0 {
		cfg = cfg.WithMACLatency(sim.Cycle(lat))
	}
	flags := next()
	cfg.IdealMDC = flags&1 != 0
	cfg.ChainedCoalescing = flags&2 != 0
	cfg.ReadVerification = flags&4 != 0
	cfg.FullMemory = flags&8 != 0
	cfg.FaultEarlyRootAck = flags&16 != 0
	return cfg, prof
}

// FuzzEngineConfig: every config Validate accepts runs all twelve
// schemes without panicking, attributes exactly its cycles, and gives
// the same Result when rerun with an arena and an unfired Canceler
// attached, which leave its Key unchanged.
func FuzzEngineConfig(f *testing.F) {
	// Two NVM blocks Validate once accepted and nvm.New then panicked
	// on, and a slow write drain behind a two-entry queue.
	f.Add([]byte{}, int8(-1), int8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add([]byte{}, int8(0), int8(-3), 0.0, 0.0, 0.0, 0.0)
	f.Add([]byte{}, int8(0), int8(2), 0.0, 0.0, 0.0, 200.0)
	f.Add([]byte{4, 1, 1, 4, 3, 3, 2, 3, 3, 3, 4, 3, 4, 3, 4, 2, 2, 14}, int8(3), int8(5), 1.5, 20.0, 90.0, 7.0)
	ar := NewArena()
	f.Fuzz(func(t *testing.T, knobs []byte, banks, writeQueue int8, cyclesPerNS, readNS, writeNS, writeBusNS float64) {
		cfg, prof := fuzzConfig(knobs)
		// Mod keeps finite durations under 1000 ns and turns an
		// infinity into a NaN, which Validate must reject.
		cfg.NVM = nvm.Config{
			CyclesPerNS: math.Mod(cyclesPerNS, 1000),
			ReadNS:      math.Mod(readNS, 1000),
			WriteNS:     math.Mod(writeNS, 1000),
			Banks:       int(banks),
			WriteBusNS:  math.Mod(writeBusNS, 1000),
			WriteQueue:  int(writeQueue),
		}
		for _, s := range Schemes() {
			cfg.Scheme = s
			if cfg.Validate() != nil {
				continue
			}
			res := Run(cfg, prof)
			if got := res.Attribution.Total(); got != res.Cycles {
				t.Fatalf("%s %+v: attribution sums to %d of %d cycles", s, cfg, got, res.Cycles)
			}
			ctx, cancel := context.WithCancel(context.Background())
			hooked := cfg
			hooked.Arena, hooked.Cancel = ar, ctx
			if hooked.Key() != cfg.Key() {
				t.Fatalf("%s: attaching an arena and a Canceler changed the key", s)
			}
			again := Run(hooked, prof)
			cancel()
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("%s %+v: the rerun with an arena and an unfired Canceler differs", s, cfg)
			}
		}
	})
}
