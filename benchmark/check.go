package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/registry"
	"plp/internal/stats"
	"plp/internal/trace"
)

// point is one simulated output a workload delivered: a sweep point's
// result digest, or a design-sweep table row. Key names the inputs
// completely, so the output can be recomputed from the key alone; Unit
// is the workload unit (point, row, job) that delivered it.
type point struct {
	Unit  int    `json:"u"`
	Key   string `json:"k"`
	Value string `json:"v"`
}

// rerunEvery selects the distinct outputs recomputed through plain
// engine.Run after the timed region: every 12th in key order.
const rerunEvery = 12

func pointKey(scheme, bench string, instr uint64) string {
	return fmt.Sprintf("%s/%s/%d", scheme, bench, instr)
}

func rowKey(exp, bench string, instr, warmup uint64) string {
	return fmt.Sprintf("%s/%s/%d/%d", exp, bench, instr, warmup)
}

// runDigest hashes a run's simulated fields. The wall-clock fields
// differ on every run and the telemetry series is present only when a
// job asked for it, so both are left out: two runs of the same point
// digest equal exactly when the simulator produced the same numbers.
func runDigest(r registry.Run) string {
	r.WallNS, r.StoresPerSec, r.Telemetry = 0, 0, nil
	data, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// reference recomputes the output a key names through plain
// engine.Run: no arena, memo, trace store, harness or service.
func reference(key string) (string, error) {
	f := strings.Split(key, "/")
	switch len(f) {
	case 3:
		instr, err := strconv.ParseUint(f[2], 10, 64)
		p, ok := trace.ProfileByName(f[1])
		if err != nil || !ok || !engine.KnownScheme(engine.Scheme(f[0])) {
			return "", fmt.Errorf("bad point key %q", key)
		}
		res := engine.Run(engine.Config{Scheme: engine.Scheme(f[0]), Instructions: instr}, p)
		return runDigest(registry.FromResult(res, nil)), nil
	case 4:
		instr, err1 := strconv.ParseUint(f[2], 10, 64)
		warm, err2 := strconv.ParseUint(f[3], 10, 64)
		p, ok := trace.ProfileByName(f[1])
		if err1 != nil || err2 != nil || !ok {
			return "", fmt.Errorf("bad row key %q", key)
		}
		return referenceRow(f[0], p, instr, warm)
	}
	return "", fmt.Errorf("bad key %q", key)
}

// referenceRow recomputes one benchmark's output of a design-sweep
// experiment the way the harness defines it: each cell is a coalescing
// configuration's cycles over the secure_WB baseline's, printed as the
// experiment's table prints it, and each summary value is the
// geometric mean of that one ratio.
func referenceRow(exp string, p trace.Profile, instr, warm uint64) (string, error) {
	cycles := func(cfg engine.Config) float64 {
		cfg.Instructions, cfg.Warmup = instr, warm
		return float64(engine.Run(cfg, p).Cycles)
	}
	var cells []string
	var vals []float64
	add := func(format string, ratio float64) {
		cells = append(cells, fmt.Sprintf(format, ratio))
		vals = append(vals, stats.GeoMean([]float64{ratio}))
	}
	switch exp {
	case "fig12":
		base := cycles(engine.Config{Scheme: engine.SchemeSecureWB})
		for _, es := range harness.EpochSizes {
			add("%.2f", cycles(engine.Config{Scheme: engine.SchemeCoalescing, EpochSize: es})/base)
		}
	case "wpq":
		base := cycles(engine.Config{Scheme: engine.SchemeSecureWB})
		for _, n := range []int{4, 8, 16, 32, 64} {
			add("%.3f", cycles(engine.Config{Scheme: engine.SchemeCoalescing, WPQEntries: n})/base)
		}
	case "llc":
		for _, kb := range []int{1024, 2048, 4096} {
			base := cycles(engine.Config{Scheme: engine.SchemeSecureWB, LLCKB: kb})
			add("%.3f", cycles(engine.Config{Scheme: engine.SchemeCoalescing, LLCKB: kb})/base)
		}
	default:
		return "", fmt.Errorf("no reference for experiment %q", exp)
	}
	return rowValue(cells, vals), nil
}

// expectedFile is a committed set of outputs under the default seed at
// -scale 1. Both service workloads share one file: the fabric must
// deliver exactly what the local pool does.
type expectedFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Outputs  map[string]string `json:"outputs"`
}

const defaultSeed = 1

func expectedName(workload string) string {
	if strings.HasPrefix(workload, "service-") {
		return "service"
	}
	return workload
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "benchmark", "expected", expectedName(workload)+".json")
}

// expectedKeys lists the outputs a workload's expected file pins.
func expectedKeys(workload string) []string {
	var keys []string
	switch expectedName(workload) {
	case "paper-sweep":
		instr := sweepInstructions(defaultSeed, paperInstr, 1)
		for _, b := range benchNames() {
			for _, s := range paperSchemes {
				keys = append(keys, pointKey(string(s), b, instr))
			}
		}
	case "design-sweep":
		instr := sweepInstructions(defaultSeed, designInstr, 1)
		for _, b := range benchNames() {
			for _, exp := range designExperiments {
				keys = append(keys, rowKey(exp, b, instr, designWarmup))
			}
		}
	case "service":
		for c := 0; c < workers; c++ {
			for k := 0; k < serviceExpectedJobs; k++ {
				j := serviceJob(defaultSeed, 1, c, k)
				for _, b := range j.Benches {
					for _, s := range jobSchemes {
						keys = append(keys, pointKey(string(s), b, j.Instructions))
					}
				}
			}
		}
	}
	return keys
}

// referenceAll recomputes keys on the benchmark's two workers.
func referenceAll(ctx context.Context, keys []string) (map[string]string, error) {
	vals := make([]string, len(keys))
	errs := make([]error, len(keys))
	if err := harness.FanCtx(ctx, len(keys), workers, func(i int) {
		vals[i], errs[i] = reference(keys[i])
	}); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[k] = vals[i]
	}
	return out, nil
}

// updateExpected re-records the expected files from plain engine runs.
func updateExpected(ctx context.Context, root string, stdout io.Writer) error {
	for _, w := range []string{"paper-sweep", "design-sweep", "service-local"} {
		keys := expectedKeys(w)
		vals, err := referenceAll(ctx, keys)
		if err != nil {
			return err
		}
		f := expectedFile{Workload: expectedName(w), Seed: defaultSeed, Outputs: vals}
		data, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return err
		}
		path := expectedPath(root, w)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write expected outputs: %w", err)
		}
		fmt.Fprintf(stdout, "# wrote %d outputs to %s\n", len(vals), path)
	}
	return nil
}

// checks is what verify found.
type checks struct {
	failed   map[int]string // unit -> first reason it failed
	expected int            // outputs compared with the expected file
	rerun    int            // outputs recomputed through plain engine.Run
}

// missingUnit marks failures no single delivered unit owns: an
// expected output that never arrived, or a run that delivered nothing.
const missingUnit = -1

// verify checks a workload's delivered outputs three ways: repeats of
// one key must agree (later rounds, memo jobs), every output must match
// the committed expected file under the default seed at -scale 1, and
// every 12th distinct output must match a plain engine.Run recomputed
// now.
func verify(ctx context.Context, o options, pts []point) (checks, error) {
	c := checks{failed: make(map[int]string)}
	fail := func(unit int, why string) {
		if _, ok := c.failed[unit]; !ok {
			c.failed[unit] = why
		}
	}
	if len(pts) == 0 {
		fail(missingUnit, "no outputs delivered")
		return c, nil
	}
	byKey := make(map[string][]point)
	for _, p := range pts {
		byKey[p.Key] = append(byKey[p.Key], p)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failKey := func(k, why string) {
		for _, p := range byKey[k] {
			fail(p.Unit, why)
		}
	}
	for _, k := range keys {
		for _, p := range byKey[k][1:] {
			if p.Value != byKey[k][0].Value {
				failKey(k, "repeated output differs: "+k)
			}
		}
	}

	if o.seed == defaultSeed && o.scale == 1 {
		data, err := os.ReadFile(expectedPath(o.root, o.workload))
		if err != nil {
			return c, fmt.Errorf("expected outputs: %w (record them with -update-expected)", err)
		}
		var exp expectedFile
		if err := json.Unmarshal(data, &exp); err != nil {
			return c, fmt.Errorf("expected outputs: %w", err)
		}
		for _, k := range keys {
			want, ok := exp.Outputs[k]
			switch {
			case !ok && expectedName(o.workload) != "service":
				// Sweeps pin every point they can deliver; services pin
				// only each client's leading jobs.
				failKey(k, "no expected output for "+k)
			case ok && byKey[k][0].Value != want:
				failKey(k, "differs from expected: "+k)
			}
			if ok {
				c.expected++
			}
		}
		for k := range exp.Outputs {
			if _, ok := byKey[k]; !ok {
				fail(missingUnit, "expected output never delivered: "+k)
			}
		}
	}

	var sel []string
	for i := 0; i < len(keys); i += rerunEvery {
		sel = append(sel, keys[i])
	}
	ref, err := referenceAll(ctx, sel)
	if err != nil {
		return c, fmt.Errorf("recompute outputs: %w", err)
	}
	for _, k := range sel {
		if ref[k] != byKey[k][0].Value {
			failKey(k, "differs from plain engine.Run: "+k)
		}
	}
	c.rerun = len(sel)
	return c, nil
}
