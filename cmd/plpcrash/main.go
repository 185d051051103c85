// Command plpcrash drives the crash-injection campaign engine
// (internal/crash): it reconstructs from a timed run's persist log what
// the timed model says had persisted at a crash cycle, replays that
// snapshot into the functional secure memory, runs recovery, and
// verifies Invariants 1 & 2 (plus epoch atomicity for the epoch
// persistency schemes).
//
// Usage:
//
//	plpcrash run                                  # default campaign, all 8 schemes
//	plpcrash run -schemes sp,pipeline -random 256 -o report.json
//	plpcrash repro -scheme pipeline -crash 6429 -instructions 20000
//	plpcrash shrink -scheme pipeline -crash 6429 -instructions 20000
//
// run sweeps systematic (persist-completion boundary) plus
// seeded-random crash points per scheme and exits non-zero if any
// point fails; -o writes the machine-readable report. repro re-runs
// one (scheme, trace seed, crash cycle) triple and prints its verdict.
// shrink reduces a failing triple to the minimal store prefix and
// earliest crash cycle that still fail.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: plpcrash <command> [flags]

commands:
  run     sweep crash points over one or more schemes (campaign)
  repro   re-verify one (scheme, trace seed, crash cycle) triple
  shrink  minimize a failing triple

run 'plpcrash <command> -h' for the command's flags`)
}

func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		usage(errw)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], out, errw)
	case "repro":
		return cmdRepro(args[1:], out, errw)
	case "shrink":
		return cmdShrink(args[1:], out, errw)
	case "-h", "-help", "--help", "help":
		usage(out)
		return 0
	default:
		fmt.Fprintf(errw, "plpcrash: unknown command %q\n\n", args[0])
		usage(errw)
		return 2
	}
}

// parseSchemes resolves the -schemes flag: "all" or a comma-separated
// subset of the 8 evaluated schemes.
func parseSchemes(spec string) ([]engine.Scheme, error) {
	if spec == "" || spec == "all" {
		return crash.AllSchemes(), nil
	}
	valid := map[engine.Scheme]bool{}
	for _, s := range crash.AllSchemes() {
		valid[s] = true
	}
	var out []engine.Scheme
	for _, name := range strings.Split(spec, ",") {
		s := engine.Scheme(strings.TrimSpace(name))
		if !valid[s] {
			return nil, fmt.Errorf("unknown scheme %q", s)
		}
		out = append(out, s)
	}
	return out, nil
}

func cmdRun(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("plpcrash run", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		schemes = fs.String("schemes", "all", "comma-separated schemes to sweep, or 'all'")
		bench   = fs.String("bench", "gcc", "benchmark profile driving the traces")
		seed    = fs.Uint64("trace-seed", 0, "trace seed override (0 = profile default)")
		instr   = fs.Uint64("instructions", 60_000, "timed instruction window per scheme")
		sys     = fs.Int("systematic", 448, "cap on persist-completion boundary crash points")
		random  = fs.Int("random", 64, "seeded-random crash points per scheme")
		rseed   = fs.Uint64("seed", 1, "seed of the random crash points")
		levels  = fs.Int("levels", crash.DefaultLevels, "BMT levels of the functional memory")
		par     = fs.Int("parallel", 0, "verification workers (0 = NumCPU)")
		fault   = fs.Bool("fault-early-root-ack", false, "inject the early-root-ack ordering bug (campaign must fail)")
		output  = fs.String("o", "", "write the machine-readable JSON report to this path")
		tag     = fs.String("tag", "", "tag recorded in the JSON report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := parseSchemes(*schemes)
	if err != nil {
		fmt.Fprintf(errw, "plpcrash: %v\n", err)
		return 2
	}
	cfg := crash.CampaignConfig{
		Schemes:           selected,
		Bench:             *bench,
		TraceSeed:         *seed,
		Instructions:      *instr,
		Systematic:        *sys,
		Random:            *random,
		Seed:              *rseed,
		Levels:            *levels,
		Parallel:          *par,
		FaultEarlyRootAck: *fault,
	}
	rep, err := crash.RunCampaign(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(errw, "plpcrash: %v\n", err)
		return 2
	}

	fmt.Fprintf(out, "crash campaign: %s, %d instructions, %d schemes\n\n",
		rep.Bench, rep.Instructions, len(rep.SchemeReports))
	failed := false
	for _, s := range rep.SchemeReports {
		status := "ok"
		if n := len(s.Failures); n > 0 {
			status = fmt.Sprintf("FAILED (%d points, %d violations)", n, s.Violations())
			failed = true
		}
		recov := "n/a"
		if s.Recovery.Finite() {
			recov = s.Recovery.String()
		}
		fmt.Fprintf(out, "%-12s guarantee=%-6s points=%-5d persists=%-6d inflight=%-3d recovery=[%s] %s\n",
			s.Scheme, s.Guarantee, s.Points, s.Persists, s.MaxInFlight, recov, status)
		for i, f := range s.Failures {
			if i >= 3 {
				fmt.Fprintf(out, "    ... and %d more failing points\n", len(s.Failures)-i)
				break
			}
			fmt.Fprintf(out, "    %s\n", f.Case)
			for _, v := range f.Violations {
				fmt.Fprintf(out, "        %s\n", v)
			}
			fmt.Fprintf(out, "        repro: plpcrash repro %s\n", reproFlags(f.Case))
		}
	}

	if *output != "" {
		if err := registry.WriteCrash(*output, rep.RegistryFile(*tag)); err != nil {
			fmt.Fprintf(errw, "plpcrash: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "\nreport written to %s\n", *output)
	}
	if failed {
		fmt.Fprintln(out, "\nRESULT: invariant violations found")
		return 1
	}
	fmt.Fprintln(out, "\nRESULT: every crash point recovered correctly")
	return 0
}

// caseFlags declares the repro-triple flags shared by repro and shrink.
func caseFlags(fs *flag.FlagSet) (c *crash.Case, levels *int) {
	c = &crash.Case{}
	fs.StringVar((*string)(&c.Scheme), "scheme", "pipeline", "persist scheme of the triple")
	fs.StringVar(&c.Bench, "bench", "gcc", "benchmark profile driving the trace")
	fs.Uint64Var(&c.TraceSeed, "trace-seed", 0, "trace seed override (0 = profile default)")
	fs.Uint64Var(&c.Instructions, "instructions", 60_000, "timed instruction window")
	fs.Uint64Var((*uint64)(&c.CrashAt), "crash", 0, "crash cycle (required)")
	fs.BoolVar(&c.FaultEarlyRootAck, "fault-early-root-ack", false, "inject the early-root-ack ordering bug")
	levels = fs.Int("levels", crash.DefaultLevels, "BMT levels of the functional memory")
	return c, levels
}

// reproFlags renders a case as repro command-line flags.
func reproFlags(c crash.Case) string {
	s := fmt.Sprintf("-scheme %s -bench %s -instructions %d -crash %d",
		c.Scheme, c.Bench, c.Instructions, c.CrashAt)
	if c.TraceSeed != 0 {
		s += fmt.Sprintf(" -trace-seed %d", c.TraceSeed)
	}
	if c.FaultEarlyRootAck {
		s += " -fault-early-root-ack"
	}
	return s
}

func cmdRepro(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("plpcrash repro", flag.ContinueOnError)
	fs.SetOutput(errw)
	c, levels := caseFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.CrashAt == 0 {
		fmt.Fprintln(errw, "plpcrash repro: -crash is required (a non-zero crash cycle)")
		return 2
	}
	v, err := crash.Verify(*c, *levels)
	if err != nil {
		fmt.Fprintf(errw, "plpcrash: %v\n", err)
		return 2
	}

	fmt.Fprintf(out, "case       %s\n", c)
	fmt.Fprintf(out, "guarantee  %s\n", v.Guarantee)
	fmt.Fprintf(out, "persisted  %d tuple persists complete at the crash\n", v.Persisted)
	fmt.Fprintf(out, "in-flight  %d lost with invariant obligations\n", v.InFlight)
	fmt.Fprintf(out, "replayed   %d persists materialized, %d dropped with a torn epoch\n",
		v.Materialized, v.DroppedPartial)
	fmt.Fprintf(out, "recovery   bmtOK=%v macFailures=%d blocksChecked=%d\n",
		v.Recovery.BMTOK, v.Recovery.MACFailures, v.Recovery.BlocksChecked)
	if v.OK() {
		fmt.Fprintln(out, "\nRESULT: crash point recovers correctly")
		return 0
	}
	fmt.Fprintln(out)
	for _, viol := range v.Violations {
		fmt.Fprintf(out, "VIOLATION: %s\n", viol)
	}
	return 1
}

func cmdShrink(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("plpcrash shrink", flag.ContinueOnError)
	fs.SetOutput(errw)
	c, levels := caseFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.CrashAt == 0 {
		fmt.Fprintln(errw, "plpcrash shrink: -crash is required (a non-zero crash cycle)")
		return 2
	}
	min, v, err := crash.Shrink(*c, *levels)
	if err != nil {
		fmt.Fprintf(errw, "plpcrash: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "input      %s\n", c)
	fmt.Fprintf(out, "minimal    %s\n", min)
	fmt.Fprintf(out, "reduced    instructions %d -> %d, crash cycle %d -> %d\n",
		c.Instructions, min.Instructions, c.CrashAt, min.CrashAt)
	for _, viol := range v.Violations {
		fmt.Fprintf(out, "VIOLATION: %s\n", viol)
	}
	fmt.Fprintf(out, "repro      plpcrash repro %s\n", reproFlags(min))
	return 1
}
