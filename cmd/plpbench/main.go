// Command plpbench is the performance-regression gate: it records
// simulation sweeps into versioned registry files (BENCH_<tag>.json)
// and compares two registry files, flagging per-benchmark cycle
// deltas beyond a noise threshold. The simulator is deterministic, so
// an unchanged tree reproduces the committed baseline exactly; a
// regression exit (non-zero) means the timing model actually changed.
//
// Usage:
//
//	plpbench record -o BENCH_seed.json -tag seed
//	plpbench record -o /tmp/fresh.json -benches gamess,gcc -schemes sp,coalescing
//	plpbench record -o /tmp/warm.json -warmup 500000 -memo -passes 2
//	plpbench compare BENCH_seed.json /tmp/fresh.json
//	plpbench compare -threshold 0.05 -warn old.json new.json
//	plpbench compare -identical cold.json warm.json
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/registry"
	"plp/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "compare":
		compare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  plpbench record  [-o FILE] [-tag TAG] [-instr N] [-warmup N] [-benches a,b]
                   [-schemes s1,s2] [-full] [-interval N] [-parallel N]
                   [-no-telemetry] [-memo] [-memo-mb N] [-passes N]
  plpbench compare [-threshold F] [-warn] [-identical] OLD.json NEW.json
`)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out      = fs.String("o", "BENCH.json", "output registry file")
		tag      = fs.String("tag", "", "registry tag (default: derived from -o)")
		instr    = fs.Uint64("instr", 2_000_000, "instructions per benchmark run")
		warmup   = fs.Uint64("warmup", 0, "warm-up instructions per run (untimed cache warm)")
		benches  = fs.String("benches", "", "comma-separated benchmark subset (default all 15)")
		schemes  = fs.String("schemes", "", "comma-separated scheme subset (default the six evaluated)")
		full     = fs.Bool("full", false, "full-memory protection (persist stack too)")
		interval = fs.Uint64("interval", 0, "telemetry window width in cycles (0 = default)")
		parallel = fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
		noTel    = fs.Bool("no-telemetry", false, "skip the time series (headline numbers only)")
		memoOn   = fs.Bool("memo", false, "memoize sweep points (warm-up checkpoints + result memo)")
		memoMB   = fs.Uint64("memo-mb", 512, "memo byte bound in MB (with -memo)")
		passes   = fs.Int("passes", 1, "record the sweep N times (with -memo: pass 1 is cold, later passes hit; the passes are asserted bit-identical)")
	)
	fs.Parse(args)

	o := harness.RecordOptions{
		Options: harness.Options{
			Instructions: *instr,
			Warmup:       *warmup,
			FullMemory:   *full,
			Parallel:     *parallel,
		},
		Interval:    sim.Cycle(*interval),
		NoTelemetry: *noTel,
	}
	if *benches != "" {
		o.Benches = strings.Split(*benches, ",")
	}
	if *schemes != "" {
		for _, s := range strings.Split(*schemes, ",") {
			sch := engine.Scheme(s)
			if !validScheme(sch) {
				fatalf("unknown scheme %q", s)
			}
			o.Schemes = append(o.Schemes, sch)
		}
	}
	if *tag == "" {
		*tag = tagFromPath(*out)
	}
	if *passes < 1 {
		*passes = 1
	}
	if *passes > 1 && !*memoOn {
		fatalf("-passes %d without -memo would just repeat identical cold work", *passes)
	}

	var memo *harness.Memo
	if *memoOn {
		memo = harness.NewMemo(*memoMB << 20)
		o.Memo = memo
	}

	var runs []registry.Run
	var firstRuns []registry.Run
	var coldWall, lastWall time.Duration
	for pass := 1; pass <= *passes; pass++ {
		start := time.Now()
		runs = harness.Record(o)
		wall := time.Since(start)
		if pass == 1 {
			firstRuns, coldWall = runs, wall
		}
		lastWall = wall
		if memo != nil {
			st := memo.Stats()
			fmt.Printf("pass %d/%d: %.2fs wall, memo %d hits / %d misses (%.0f%% hit rate), %d checkpoints built\n",
				pass, *passes, wall.Seconds(), st.Hits, st.Misses, st.HitRate()*100, st.CheckpointMisses)
		} else {
			fmt.Printf("pass %d/%d: %.2fs wall\n", pass, *passes, wall.Seconds())
		}
	}
	if *passes > 1 {
		// The memoization correctness gate: every pass must reproduce
		// pass 1 bit-for-bit (modulo wall clock).
		if !runsIdentical(firstRuns, runs) {
			fatalf("memoized pass diverged from the cold pass: results are not bit-identical")
		}
		fmt.Printf("passes bit-identical; memoized speedup %.2fx (%.2fs cold -> %.2fs warm)\n",
			coldWall.Seconds()/lastWall.Seconds(), coldWall.Seconds(), lastWall.Seconds())
	}

	f := registry.New(*tag, *instr, *full)
	f.Warmup = *warmup
	f.Runs = runs
	if memo != nil {
		st := memo.Stats()
		mi := &registry.MemoInfo{
			Passes:           *passes,
			Hits:             st.Hits,
			Misses:           st.Misses,
			HitRate:          st.HitRate(),
			CheckpointHits:   st.CheckpointHits,
			CheckpointMisses: st.CheckpointMisses,
		}
		if *passes > 1 {
			mi.ColdWallNS = uint64(coldWall.Nanoseconds())
			mi.WarmWallNS = uint64(lastWall.Nanoseconds())
			if lastWall > 0 {
				mi.Speedup = float64(coldWall.Nanoseconds()) / float64(lastWall.Nanoseconds())
			}
		}
		f.Memo = mi
	}
	if err := registry.Write(*out, f); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("recorded %d runs (%d instructions each) to %s\n", len(runs), *instr, *out)
	var wallNS, persists uint64
	for _, r := range runs {
		wallNS += r.WallNS
		persists += r.Persists
	}
	if wallNS > 0 {
		fmt.Printf("simulator throughput: %.2fs total wall, %.0f persists/s aggregate\n",
			float64(wallNS)/1e9, float64(persists)/(float64(wallNS)/1e9))
	}
}

// runsIdentical compares two recordings of the same sweep modulo the
// wall-clock fields.
func runsIdentical(a, b []registry.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.WallNS, x.StoresPerSec = 0, 0
		y.WallNS, y.StoresPerSec = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func compare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var (
		threshold = fs.Float64("threshold", 0.02, "noise threshold as a fraction (0.02 = 2%)")
		warn      = fs.Bool("warn", false, "report regressions but exit zero (warn-only gate)")
		identical = fs.Bool("identical", false, "require bit-identical runs (modulo wall clock); the memoization gate")
	)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	oldF, err := registry.Load(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	newF, err := registry.Load(fs.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("comparing %s (%s) -> %s (%s)\n", fs.Arg(0), oldF.Tag, fs.Arg(1), newF.Tag)
	for _, side := range []struct {
		name string
		f    *registry.File
	}{{fs.Arg(0), oldF}, {fs.Arg(1), newF}} {
		if m := side.f.Memo; m != nil {
			fmt.Printf("%s: memoized recording (%d passes, %.0f%% hit rate", side.name, m.Passes, m.HitRate*100)
			if m.Speedup > 0 {
				fmt.Printf(", %.2fx warm speedup", m.Speedup)
			}
			fmt.Println(")")
		}
	}
	if *identical {
		diffs := registry.Identical(oldF, newF)
		if len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Println("DIFF: " + d)
			}
			fatalf("%d differences; files are not bit-identical", len(diffs))
		}
		fmt.Printf("bit-identical: %d runs match exactly (wall clock ignored)\n", len(oldF.Runs))
		return
	}
	rep := registry.Compare(oldF, newF, *threshold)
	fmt.Print(rep.String())
	if rep.Failed() {
		if *warn {
			fmt.Println("WARN: regressions detected (warn-only mode, exiting 0)")
			return
		}
		os.Exit(1)
	}
	fmt.Println("no regressions.")
}

// validScheme accepts every registered scheme.
func validScheme(s engine.Scheme) bool {
	return engine.KnownScheme(s)
}

// tagFromPath derives a tag from "BENCH_<tag>.json"-shaped paths,
// falling back to the bare filename.
func tagFromPath(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".json")
	base = strings.TrimPrefix(base, "BENCH_")
	base = strings.TrimPrefix(base, "BENCH")
	if base == "" {
		return "bench"
	}
	return base
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "plpbench: "+format+"\n", args...)
	os.Exit(1)
}
