package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"plp/internal/engine"
	"plp/internal/sim"
	"plp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runSampled runs cfg over bench with a sampler as its observer and
// returns the result and the finished series.
func runSampled(t *testing.T, cfg engine.Config, bench string, interval sim.Cycle, labels []string) (engine.Result, Series) {
	t.Helper()
	p, ok := trace.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	sampler := NewSampler(interval, 0, labels)
	cfg.Observer = sampler
	res := engine.Run(cfg, p)
	return res, sampler.Snapshot()
}

// TestTelemetryGolden pins a sampled run's series byte for byte:
// gamess at 50k instructions under sp, pipeline and coalescing.
func TestTelemetryGolden(t *testing.T) {
	for _, s := range []engine.Scheme{engine.SchemeSP, engine.SchemePipeline, engine.SchemeCoalescing} {
		_, ser := runSampled(t, engine.Config{Scheme: s, Instructions: 50_000}, "gamess", 4096, engine.ComponentLabels())
		got, err := json.MarshalIndent(ser, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		golden := filepath.Join("testdata", "telemetry_"+string(s)+"_gamess_50k.golden")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/telemetry -run TestTelemetryGolden -update` to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: telemetry series differs from %s", s, golden)
		}
	}
}

// Per-window telemetry counters must sum exactly to the run totals on
// engine.Result for every scheme — the same conservation invariant the
// cycle attribution keeps for Cycles.
func TestTelemetryConservation(t *testing.T) {
	for _, s := range engine.AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			res, ser := runSampled(t, engine.Config{Scheme: s, Instructions: 200_000}, "gamess", 4096, engine.ComponentLabels())
			if len(ser.Windows) == 0 {
				t.Fatal("no telemetry windows recorded")
			}
			if got := ser.Total(func(w Window) uint64 { return w.Persists }); got != res.Persists {
				t.Errorf("window persists sum = %d, Result.Persists = %d", got, res.Persists)
			}
			if got := ser.Total(func(w Window) uint64 { return w.Epochs }); got != res.Epochs {
				t.Errorf("window epochs sum = %d, Result.Epochs = %d", got, res.Epochs)
			}
			if got := ser.Total(func(w Window) uint64 { return w.NVMWrites }); got != res.NVMWrites {
				t.Errorf("window NVM writes sum = %d, Result.NVMWrites = %d", got, res.NVMWrites)
			}
			if got := ser.Total(func(w Window) uint64 { return w.NVMReads }); got != res.NVMReads {
				t.Errorf("window NVM reads sum = %d, Result.NVMReads = %d", got, res.NVMReads)
			}
			// The stall mix telescopes to the float attribution total,
			// which matches Cycles to within the reported drift.
			var stalls float64
			for _, w := range ser.Windows {
				for _, v := range w.Stalls {
					stalls += v
				}
			}
			if diff := math.Abs(stalls - float64(res.Cycles)); diff > res.AttribDrift+1e-6 {
				t.Errorf("window stall sum = %.3f, Cycles = %d (diff %.3f > drift %.3f)",
					stalls, res.Cycles, diff, res.AttribDrift)
			}
			// The series covers the whole run.
			last := ser.Windows[len(ser.Windows)-1]
			if end := last.Start + ser.Interval; end < res.Cycles {
				t.Errorf("series ends at cycle %d, run has %d cycles", end, res.Cycles)
			}
		})
	}
}

// Occupancy samples must respect the structures' configured capacity.
func TestTelemetryOccupancyBounds(t *testing.T) {
	for _, s := range []engine.Scheme{engine.SchemeSP, engine.SchemePipeline, engine.SchemeO3, engine.SchemeCoalescing} {
		cfg := engine.Config{Scheme: s, Instructions: 100_000, WPQEntries: 32, PTTEntries: 64, ETTSlots: 2}
		_, ser := runSampled(t, cfg, "gcc", 4096, nil)
		for i, w := range ser.Windows {
			if w.WPQMax > 32 {
				t.Errorf("%s window %d: WPQMax %d > capacity 32", s, i, w.WPQMax)
			}
			if w.PTTMax > 64 {
				t.Errorf("%s window %d: PTTMax %d > capacity 64", s, i, w.PTTMax)
			}
			if w.ETTMax > 2 {
				t.Errorf("%s window %d: ETTMax %d > capacity 2", s, i, w.ETTMax)
			}
		}
	}
}

// A minimal run (one instruction, likely zero persists) still closes
// the series with the final probe and conserves totals.
func TestTelemetryMinimalRun(t *testing.T) {
	for _, s := range engine.Schemes() {
		res, ser := runSampled(t, engine.Config{Scheme: s, Instructions: 1}, "gamess", 0, engine.ComponentLabels())
		if len(ser.Windows) == 0 {
			t.Fatalf("%s: minimal run recorded no windows (final probe missing)", s)
		}
		if got := ser.Total(func(w Window) uint64 { return w.Persists }); got != res.Persists {
			t.Errorf("%s: window persists sum = %d, want %d", s, got, res.Persists)
		}
	}
}

// Identical configs must produce identical telemetry series — the
// sampler adds no nondeterminism to the deterministic simulator.
func TestTelemetryDeterministic(t *testing.T) {
	run := func() Series {
		_, ser := runSampled(t, engine.Config{Scheme: engine.SchemeCoalescing, Instructions: 100_000}, "milc", 8192, engine.ComponentLabels())
		return ser
	}
	a, b := run(), run()
	if len(a.Windows) != len(b.Windows) || a.Interval != b.Interval {
		t.Fatalf("series shape differs: %d/%d windows, %d/%d interval",
			len(a.Windows), len(b.Windows), a.Interval, b.Interval)
	}
	for i := range a.Windows {
		wa, wb := a.Windows[i], b.Windows[i]
		if wa.Persists != wb.Persists || wa.NVMWrites != wb.NVMWrites ||
			wa.WPQMax != wb.WPQMax || wa.Samples != wb.Samples {
			t.Fatalf("window %d differs: %+v vs %+v", i, wa, wb)
		}
	}
}
