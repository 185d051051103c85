package engine_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"plp/internal/engine"
	"plp/internal/nvm"
	"plp/internal/sim"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// fuzzConfig decodes knobs into a config, one byte per field in the
// order below. Each byte picks from a small range that includes the
// default and, for signed fields, zero and a negative value; a field
// past the end of knobs takes the first value of its range, the
// default. Runs stay at most 20k instructions, so one input runs all
// twelve schemes in well under a second.
func fuzzConfig(knobs []byte) (engine.Config, trace.Profile) {
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
	cfg := engine.Config{
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

// countingObserver checks the observer stream of one run as it
// arrives: persist records in program order from Seq 0, and counts of
// the persists, epochs and End calls to hold against the Result. Its
// telemetry sampler takes every sample point and the End probe into
// windows small enough to fold, whose counters must sum to the
// Result's.
type countingObserver struct {
	*telemetry.Sampler
	persists, epochs, ends uint64
	outOfOrder             string // the first out-of-order persist, if any
	end                    struct{ persists, nvmReads, nvmWrites uint64 }
}

func newCountingObserver() *countingObserver {
	return &countingObserver{Sampler: telemetry.NewSampler(500, 4, engine.ComponentLabels())}
}

func (o *countingObserver) Persist(r engine.PersistRecord) {
	if r.Seq != o.persists && o.outOfOrder == "" {
		o.outOfOrder = fmt.Sprintf("persist record %d carries Seq %d", o.persists, r.Seq)
	}
	o.persists++
}

func (o *countingObserver) Epoch(engine.EpochRecord) { o.epochs++ }

func (o *countingObserver) End(p engine.Probe) {
	o.ends++
	o.end.persists, o.end.nvmReads, o.end.nvmWrites = p.Persists(), p.NVMReads(), p.NVMWrites()
	o.Sampler.End(p)
}

// check reports how the observed stream disagrees with res.
func (o *countingObserver) check(res engine.Result) string {
	var sum telemetry.Window
	windows := o.Snapshot().Windows
	for _, w := range windows {
		sum.Persists += w.Persists
		sum.Epochs += w.Epochs
		sum.NVMReads += w.NVMReads
		sum.NVMWrites += w.NVMWrites
	}
	switch {
	case o.outOfOrder != "":
		return o.outOfOrder
	case o.persists != res.Persists:
		return fmt.Sprintf("%d persist records for %d persists", o.persists, res.Persists)
	case o.epochs != res.Epochs:
		return fmt.Sprintf("%d epoch records for %d epochs", o.epochs, res.Epochs)
	case o.ends != 1:
		return fmt.Sprintf("%d End calls", o.ends)
	case o.end.persists != res.Persists || o.end.nvmReads != res.NVMReads || o.end.nvmWrites != res.NVMWrites:
		return fmt.Sprintf("End probe persists/reads/writes %d/%d/%d, Result %d/%d/%d",
			o.end.persists, o.end.nvmReads, o.end.nvmWrites, res.Persists, res.NVMReads, res.NVMWrites)
	case sum.Persists != res.Persists || sum.Epochs != res.Epochs || sum.NVMReads != res.NVMReads || sum.NVMWrites != res.NVMWrites:
		return fmt.Sprintf("%d telemetry windows sum to persists/epochs/reads/writes %d/%d/%d/%d, Result %d/%d/%d/%d",
			len(windows), sum.Persists, sum.Epochs, sum.NVMReads, sum.NVMWrites, res.Persists, res.Epochs, res.NVMReads, res.NVMWrites)
	}
	return ""
}

// FuzzEngineConfig: every config Validate accepts runs all twelve
// schemes without panicking, attributes exactly its cycles, and gives
// the same Result when rerun with an arena, an unfired Canceler and an
// observer attached, which leave its Key unchanged. The rerun shares
// one arena with every earlier input, so it also catches per-run state
// that a run leaves behind in the arena, its views of the recorded op
// stream, the write queue or the PTT walk. All twelve schemes rerun
// one config there, so unless it sets IdealMDC or ReadVerification
// the first of the seven schemes that share their metadata-cache
// lookups records them and the other six replay them: every such
// input also holds a replay to the live run. The observer must see the
// persists in program order, one record per persist and per epoch,
// an End probe carrying the Result's totals, and telemetry windows
// whose persists, epochs, NVM reads and NVM writes sum to the
// Result's.
func FuzzEngineConfig(f *testing.F) {
	// Two NVM blocks Validate once accepted and nvm.New then panicked
	// on, and a slow write drain behind a two-entry queue.
	f.Add([]byte{}, int8(-1), int8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add([]byte{}, int8(0), int8(-3), 0.0, 0.0, 0.0, 0.0)
	f.Add([]byte{}, int8(0), int8(2), 0.0, 0.0, 0.0, 200.0)
	f.Add([]byte{4, 1, 1, 4, 3, 3, 2, 3, 3, 3, 4, 3, 4, 3, 4, 2, 2, 14}, int8(3), int8(5), 1.5, 20.0, 90.0, 7.0)
	ar := engine.NewArena()
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
		for _, s := range engine.Schemes() {
			cfg.Scheme = s
			if cfg.Validate() != nil {
				continue
			}
			res := engine.Run(cfg, prof)
			if got := res.Attribution.Total(); got != res.Cycles {
				t.Fatalf("%s %+v: attribution sums to %d of %d cycles", s, cfg, got, res.Cycles)
			}
			ctx, cancel := context.WithCancel(context.Background())
			obs := newCountingObserver()
			hooked := cfg
			hooked.Arena, hooked.Cancel, hooked.Observer = ar, ctx, obs
			if hooked.Key() != cfg.Key() {
				t.Fatalf("%s: attaching an arena, a Canceler and an observer changed the key", s)
			}
			again := engine.Run(hooked, prof)
			cancel()
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("%s %+v: the rerun with an arena, an unfired Canceler and an observer differs", s, cfg)
			}
			if msg := obs.check(again); msg != "" {
				t.Fatalf("%s %+v: observer: %s", s, cfg, msg)
			}
		}
	})
}
