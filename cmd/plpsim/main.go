// Command plpsim runs one timing simulation: a benchmark profile under
// one of the paper's persist schemes, printing the result and its
// overhead against the secure_WB baseline.
//
// Usage:
//
//	plpsim -scheme coalescing -bench gamess -instr 10000000
//	plpsim -scheme sp -bench gcc -full
//	plpsim -metrics -bench gamess -instr 2000000
//	plpsim -json -scheme o3 -bench gcc          # machine-readable result
//	plpsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/sim"
	"plp/internal/trace"
	"plp/internal/tracefile"
)

func main() {
	var (
		scheme   = flag.String("scheme", "coalescing", fmt.Sprintf("persist scheme, one of %v", engine.Schemes()))
		bench    = flag.String("bench", "gamess", "benchmark profile name")
		instr    = flag.Uint64("instr", 10_000_000, "instructions to simulate")
		full     = flag.Bool("full", false, "persist the stack segment too (full-memory protection)")
		epoch    = flag.Int("epoch", 32, "epoch size in stores (epoch-persistency schemes)")
		wpq      = flag.Int("wpq", 32, "write pending queue entries")
		macLat   = flag.Int("maclat", 40, "MAC latency in processor cycles")
		idealMDC = flag.Bool("ideal-mdc", false, "ideal metadata caches and free MACs")
		warmup   = flag.Uint64("warmup", 0, "cache warmup instructions before the measured region")
		readVer  = flag.Bool("read-verify", false, "model load-side verification traffic (ablation)")
		traceIn  = flag.String("trace", "", "replay a recorded trace file instead of the synthetic generator")
		custom   = flag.String("profile", "", "custom workload spec, e.g. name=kv,ipc=1.2,stores=80,stack=0.1,distinct=30,wb=5")
		metrics  = flag.Bool("metrics", false, "run every scheme on the benchmark and print cycle attribution + latency percentiles")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON (full result incl. attribution and latency percentiles) instead of the text table")
		list     = flag.Bool("list", false, "list benchmark profiles and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmark profiles (Table V calibration targets):")
		for _, p := range trace.Profiles() {
			fmt.Printf("  %-10s IPC=%.2f  storesPKI=%.2f  non-stack=%.2f  epoch-distinct=%.2f  writebacks=%.2f\n",
				p.Name, p.IPC, p.Paper.SpFull, p.Paper.Sp, p.Paper.O3, p.Paper.WBFull)
		}
		return
	}

	var prof trace.Profile
	if *custom != "" {
		var err error
		prof, err = trace.ParseProfileSpec(*custom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plpsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		var ok bool
		prof, ok = trace.ProfileByName(*bench)
		if !ok && *traceIn == "" {
			fmt.Fprintf(os.Stderr, "plpsim: unknown benchmark %q (use -list)\n", *bench)
			os.Exit(1)
		}
	}

	cfg := engine.Config{
		Scheme:           engine.Scheme(*scheme),
		Instructions:     *instr,
		FullMemory:       *full,
		EpochSize:        *epoch,
		WPQEntries:       *wpq,
		IdealMDC:         *idealMDC,
		Warmup:           *warmup,
		ReadVerification: *readVer,
	}.WithMACLatency(sim.Cycle(*macLat))

	if !engine.KnownScheme(cfg.Scheme) && !*metrics {
		fmt.Fprintf(os.Stderr, "plpsim: unknown scheme %q\n", *scheme)
		os.Exit(1)
	}

	if *metrics {
		if *jsonOut {
			writeMetricsJSON(os.Stdout, cfg, prof)
		} else {
			writeMetrics(os.Stdout, cfg, prof)
		}
		return
	}

	// One arena serves both runs: the baseline warms its big buffers,
	// the measured run reuses them.
	ar := engine.NewArena()
	cfg.Arena = ar
	baseCfg := engine.Config{Scheme: engine.SchemeSecureWB,
		Instructions: *instr, FullMemory: *full, Arena: ar}
	var base, res engine.Result
	var wall time.Duration
	if *traceIn != "" {
		tr := loadTrace(*traceIn)
		base = runTrace(baseCfg, tr)
		start := time.Now()
		res = runTrace(cfg, tr)
		wall = time.Since(start)
	} else {
		base = engine.Run(baseCfg, prof)
		start := time.Now()
		res = engine.Run(cfg, prof)
		wall = time.Since(start)
	}

	if *jsonOut {
		writeResultJSON(os.Stdout, res, base, wall)
		return
	}

	fmt.Printf("benchmark        %s\n", res.Bench)
	fmt.Printf("scheme           %s\n", res.Scheme)
	fmt.Printf("instructions     %d\n", res.Instructions)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("IPC              %.4f\n", res.IPC)
	fmt.Printf("persists         %d (%.2f per kilo-instruction)\n", res.Persists, res.PPKI)
	if res.Epochs > 0 {
		fmt.Printf("epochs           %d\n", res.Epochs)
	}
	fmt.Printf("BMT node updates %d", res.BMTNodeUpdates)
	if res.BMTUpdatesNoCoal > 0 {
		fmt.Printf(" (coalescing removed %.1f%%)", res.CoalescingReduction()*100)
	}
	fmt.Println()
	fmt.Printf("metadata hits    ctr %.3f  mac %.3f  bmt %.3f\n",
		res.CtrHitRate, res.MACHitRate, res.BMTHitRate)
	fmt.Printf("NVM traffic      %d reads, %d writes\n", res.NVMReads, res.NVMWrites)
	if res.PersistLatency.Count() > 0 {
		fmt.Printf("persist latency  mean=%.0f p50<=%d p99<=%d max=%d cycles\n",
			res.PersistLatency.Mean(), res.PersistLatency.Percentile(50),
			res.PersistLatency.Percentile(99), res.PersistLatency.Max())
	}
	fmt.Printf("normalized time  %.3fx of secure_WB (baseline IPC %.4f)\n",
		float64(res.Cycles)/float64(base.Cycles), base.IPC)
	if s := wall.Seconds(); s > 0 {
		fmt.Printf("simulator speed  %.2fs wall (%.0f persists/s, %.1fM instr/s)\n",
			s, float64(res.Persists)/s, float64(res.Instructions)/s/1e6)
	}
}

// writeMetrics runs every registered scheme on the benchmark and prints
// the observability view: where each scheme's cycles go (the engine's
// per-component attribution) and its persist/epoch latency percentiles.
// Schemes are emitted in registry order (Table IV first) and components in reporting
// order — never by ranging over a map — so the output is deterministic
// (pinned by a golden test).
func writeMetrics(w io.Writer, cfg engine.Config, prof trace.Profile) {
	fmt.Fprintf(w, "benchmark %s, %d instructions\n\n", prof.Name, cfg.Instructions)
	cfg.Arena = engine.NewArena() // shared across the scheme sweep
	for _, s := range engine.Schemes() {
		c := cfg
		c.Scheme = s
		res := engine.Run(c, prof)
		fmt.Fprintf(w, "%s: %d cycles (IPC %.4f)\n", s, res.Cycles, res.IPC)
		fmt.Fprintf(w, "  cycles by cause:")
		for _, comp := range engine.Components() {
			if res.Attribution[comp] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s %.1f%%", comp, res.Attribution.Share(comp)*100)
		}
		fmt.Fprintln(w)
		if res.PersistLatency.Count() > 0 {
			fmt.Fprintf(w, "  persist latency: mean=%.0f p50<=%d p95<=%d p99<=%d max=%d\n",
				res.PersistLatency.Mean(), res.PersistLatency.Percentile(50),
				res.PersistLatency.Percentile(95), res.PersistLatency.Percentile(99),
				res.PersistLatency.Max())
		}
		if res.WPQWaitLatency.Count() > 0 {
			fmt.Fprintf(w, "  WPQ admission wait: mean=%.0f p99<=%d\n",
				res.WPQWaitLatency.Mean(), res.WPQWaitLatency.Percentile(99))
		}
		if res.EpochLatency.Count() > 0 {
			fmt.Fprintf(w, "  epoch latency: mean=%.0f p50<=%d p95<=%d p99<=%d (%d epochs)\n",
				res.EpochLatency.Mean(), res.EpochLatency.Percentile(50),
				res.EpochLatency.Percentile(95), res.EpochLatency.Percentile(99),
				res.Epochs)
		}
		fmt.Fprintln(w)
	}
}

// writeMetricsJSON is the machine-readable -metrics view: one registry
// record per scheme, in registry order (Table IV first).
func writeMetricsJSON(w io.Writer, cfg engine.Config, prof trace.Profile) {
	runs := make([]registry.Run, 0, len(engine.Schemes()))
	cfg.Arena = engine.NewArena()
	for _, s := range engine.Schemes() {
		c := cfg
		c.Scheme = s
		start := time.Now()
		res := engine.Run(c, prof)
		rec := registry.FromResult(res, nil)
		rec.SetTiming(time.Since(start))
		runs = append(runs, rec)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(runs); err != nil {
		fmt.Fprintf(os.Stderr, "plpsim: %v\n", err)
		os.Exit(1)
	}
}

// writeResultJSON emits one run's full machine-readable result
// (attribution, latency digests) plus its baseline normalization, so
// scripts stop scraping the text table.
func writeResultJSON(w io.Writer, res, base engine.Result, wall time.Duration) {
	out := struct {
		Run            registry.Run `json:"run"`
		BaselineCycles uint64       `json:"baselineCycles"`
		BaselineIPC    float64      `json:"baselineIPC"`
		Normalized     float64      `json:"normalizedTime"`
	}{
		Run:            registry.FromResult(res, nil),
		BaselineCycles: uint64(base.Cycles),
		BaselineIPC:    base.IPC,
	}
	out.Run.SetTiming(wall)
	if base.Cycles > 0 {
		out.Normalized = float64(res.Cycles) / float64(base.Cycles)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "plpsim: %v\n", err)
		os.Exit(1)
	}
}

// loadTrace reads a recorded trace file.
func loadTrace(path string) *tracefile.Trace {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plpsim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := tracefile.Read(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plpsim: %v\n", err)
		os.Exit(1)
	}
	return tr
}

// runTrace replays tr under cfg.
func runTrace(cfg engine.Config, tr *tracefile.Trace) engine.Result {
	rep, err := tracefile.NewReplayer(tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plpsim: %v\n", err)
		os.Exit(1)
	}
	return engine.RunSource(cfg, tr.Name, tr.IPC, rep)
}
