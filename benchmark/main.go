// Command benchmark is the plp repository's benchmark. It times the
// simulator and its job service end to end on four workloads, adds
// per-layer host-time numbers in a traced run, and checks on every run
// that the simulated output has not changed.
//
// Run it from the repository root through benchmark/run.sh, which
// builds this package and cmd/plpserve from source first:
//
//	bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness and its metrics; the lines before it are a readable
// report. README.md describes the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var workloadNames = []string{"paper-sweep", "design-sweep", "service-local", "service-fabric"}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	scale     float64
	root      string
	bin       string
	update    bool
	child     string
	setupOnly bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (empty = all, one after another)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed: bench order and instruction offsets (sweeps), bench pairs and offsets (service)")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed region in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	fs.Float64Var(&o.scale, "scale", 1, "multiply every instruction count (expected outputs apply at 1 only)")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.bin, "bin", ".bench_build", "directory holding the plpserve binary")
	fs.BoolVar(&o.update, "update-expected", false, "re-record benchmark/expected from plain engine runs, then exit")
	fs.StringVar(&o.child, "child", "", "internal: run as a child process in this role (sweep, layers)")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child sweep, exit once set-up is done")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload != "" && !slices.Contains(workloadNames, o.workload):
		return o, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1")
	case !(o.scale > 0):
		return o, fmt.Errorf("-scale must be positive")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	switch o.child {
	case "":
		return runParent(o, stdout, stderr)
	case "sweep":
		err = childSweep(o, stdout)
	case "layers":
		err = childLayers(o, stdout)
	default:
		err = fmt.Errorf("unknown child role %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// setupRepeats is how many times each run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

// slackPerWorkload bounds what one workload may take beyond its timed
// region: set-up, wind-down, output checks and the traced replays.
const slackPerWorkload = 140 * time.Second

func runParent(o options, stdout, stderr io.Writer) int {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	limit := time.Duration(len(names)) * (time.Duration(o.seconds)*time.Second + slackPerWorkload)
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	sup := newSupervisor()
	defer sup.stopAll()
	pr := newProbe()

	if o.update {
		if err := updateExpected(ctx, o.root, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	code := 0
	for _, name := range names {
		o.workload = name
		ok, err := runWorkload(ctx, sup, pr, o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// workloadResult is one workload run as measured, before checking.
type workloadResult struct {
	setup   []float64 // seconds, one per set-up repetition
	elapsed float64   // timed region, seconds
	instr   uint64    // simulated instructions delivered
	// units are the unit latencies in ms; unitKeys[i] names the inputs
	// of unit i, so repeats of one input share a key. unitInstr[i] is
	// unit i's simulated instructions, reported by the sweeps only.
	units     []float64
	unitKeys  []string
	unitInstr []uint64
	attempted int
	failed    map[int]string // unit -> why it failed
	points    []point
	rssKB     uint64 // peak resident set, summed over the measured processes
	vmKB      uint64 // peak virtual size, summed likewise
	layer     map[string]float64
	notes     []string
	probeMS   []float64 // host-speed probe samples, before and after
}

// scale is the factor that brings this run's timings to the reference
// host speed: below 1 when the probe ran slow.
func (w *workloadResult) scale() float64 { return probeNominalMS / percentile(w.probeMS, 0.5) }

// keyWeights gives each unit the weight 1/(units sharing its key), so
// that every distinct input weighs the same in the latency percentiles
// whichever mix of inputs the deadline let the run finish: a run that
// ends early in a pass over the inputs would otherwise over-weigh the
// inputs that pass reached.
func (w *workloadResult) keyWeights() []float64 {
	n := make(map[string]int)
	for _, k := range w.unitKeys {
		n[k]++
	}
	ws := make([]float64, len(w.unitKeys))
	for i, k := range w.unitKeys {
		ws[i] = 1 / float64(n[k])
	}
	return ws
}

// unitPercentile is the q-quantile of the unit latencies, each
// distinct input weighted equally.
func (w *workloadResult) unitPercentile(q float64) float64 {
	return weightedPercentile(w.units, w.keyWeights(), q)
}

// keyMedians reduces the unit latencies to one per distinct key, the
// median of that key's repeats, so that neither the mix of inputs a
// run happens to finish nor a few units caught in a slow phase of the
// host move the result. It also returns one unit's instructions summed
// over the keys: the work of one pass over every distinct input.
func (w *workloadResult) keyMedians() (meds []float64, instr uint64) {
	byKey := make(map[string][]float64)
	keyInstr := make(map[string]uint64)
	var keys []string
	for i, k := range w.unitKeys {
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], w.units[i])
		if w.unitInstr != nil {
			keyInstr[k] = w.unitInstr[i]
		}
	}
	for _, k := range keys {
		meds = append(meds, percentile(byKey[k], 0.5))
		instr += keyInstr[k]
	}
	return meds, instr
}

func runWorkload(ctx context.Context, sup *supervisor, pr *probe, o options, stdout, stderr io.Writer) (bool, error) {
	var w *workloadResult
	var err error
	before := pr.sample()
	if strings.HasPrefix(o.workload, "service-") {
		w, err = runService(ctx, sup, o)
	} else {
		w, err = runSweep(ctx, sup, o)
	}
	if err != nil {
		return false, err
	}
	w.probeMS = append(before, pr.sample()...)
	c, err := verify(ctx, o, w.points)
	if err != nil {
		return false, err
	}
	for u, why := range c.failed {
		if _, ok := w.failed[u]; !ok {
			w.failed[u] = why
		}
	}
	lr := layerResult{}
	if o.trace == 1 {
		if lr, err = runLayers(ctx, sup, o); err != nil {
			return false, err
		}
	}
	res, err := w.result(o, lr)
	if err != nil {
		return false, err
	}
	report(stdout, o, w, c, lr)
	if len(w.failed) > 0 {
		reportFailures(stderr, w.failed)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return res.Correct, nil
}

// childArgs are the flags a child process of role needs.
func childArgs(o options, role string) []string {
	return []string{"-child", role, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64)}
}

// lastLine returns the final line of a child's output.
func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

// readyAt parses the set-up mark a sweep child prints first.
func readyAt(out []byte) (time.Time, error) {
	line, _, _ := bytes.Cut(out, []byte("\n"))
	ns, ok := strings.CutPrefix(string(line), readyPrefix)
	if !ok {
		return time.Time{}, fmt.Errorf("sweep child printed no set-up mark")
	}
	n, err := strconv.ParseInt(ns, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad set-up mark %q", line)
	}
	return time.Unix(0, n), nil
}

// runSweep measures a sweep workload in child processes: set-up-only
// children first, then the child that also runs the timed region.
// Each child's set-up time runs from the parent's spawn to the child's
// ready mark.
func runSweep(ctx context.Context, sup *supervisor, o options) (*workloadResult, error) {
	args := childArgs(o, "sweep")
	w := &workloadResult{failed: make(map[int]string)}
	var out []byte
	for i := 0; i < setupRepeats; i++ {
		a := args
		if i < setupRepeats-1 {
			a = append(append([]string(nil), args...), "-setup-only")
		}
		var spawn time.Time
		var err error
		if out, spawn, err = runSelf(ctx, sup, a...); err != nil {
			return nil, err
		}
		ready, err := readyAt(out)
		if err != nil {
			return nil, err
		}
		w.setup = append(w.setup, ready.Sub(spawn).Seconds())
	}
	var res sweepResult
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return nil, fmt.Errorf("sweep child result: %w", err)
	}
	w.elapsed, w.instr, w.units, w.unitInstr = res.ElapsedS, res.Instr, res.UnitMS, res.UnitInstr
	w.attempted, w.points, w.layer = res.Attempted, res.Points, res.Layer
	// A sweep delivers one output per unit, named by the unit's inputs.
	for _, p := range res.Points {
		w.unitKeys = append(w.unitKeys, p.Key)
	}
	w.rssKB, w.vmKB = res.HWMKB, res.PeakKB
	if o.workload == "design-sweep" {
		// A unit's key starts with its experiment.
		byExp := make(map[string][]float64)
		for i, p := range res.Points {
			exp, _, _ := strings.Cut(p.Key, "/")
			byExp[exp] = append(byExp[exp], res.UnitMS[i])
		}
		for _, exp := range designExperiments {
			w.notes = append(w.notes, fmt.Sprintf("harness.experiment_ms.%s %s", exp, summarize(byExp[exp]).format("ms")))
		}
	}
	return w, nil
}

// runLayers runs the per-layer replays in a fresh child process.
func runLayers(ctx context.Context, sup *supervisor, o options) (layerResult, error) {
	var lr layerResult
	out, _, err := runSelf(ctx, sup, childArgs(o, "layers")...)
	if err != nil {
		return lr, err
	}
	if err := json.Unmarshal(lastLine(out), &lr); err != nil {
		return lr, fmt.Errorf("layer child result: %w", err)
	}
	return lr, nil
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"unit_p50_ms", "ms"},
	{"unit_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"peak_vm_mb", "MB"},
}

// perLayer are the metrics a traced run prints, every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.fill_ns_per_op", "ns"},
		{"trace.share", "ratio"},
		{"engine.run_ms_p50", "ms"},
		{"engine.run_ms_p90", "ms"},
	}
	for _, s := range paperSchemes {
		defs = append(defs, metricDef{"engine.ns_per_instr." + string(s), "ns"})
	}
	return append(defs, []metricDef{
		{"hier.ns_per_access", "ns"},
		{"cache.ns_per_access", "ns"},
		{"bmt.ns_per_path", "ns"},
		{"nvm.ns_per_write", "ns"},
		{"wpq.ns_per_admit", "ns"},
		{"ptt.ns_per_persist", "ns"},
		{"sim.ns_per_acquire", "ns"},
		{"ett.ns_per_epoch", "ns"},
		{"engine.persists_per_kinstr", "1/kinstr"},
		{"engine.bmt_updates_per_persist", "count"},
		{"nvm.writes_per_kinstr", "1/kinstr"},
		{"cache.ctr_hit_rate", "ratio"},
		{"cache.mac_hit_rate", "ratio"},
		{"cache.bmt_hit_rate", "ratio"},
		{"harness.memo_hit_rate", "ratio"},
		{"harness.checkpoint_hit_rate", "ratio"},
		{"harness.memo_mb", "MB"},
		{"trace.store_hit_rate", "ratio"},
		{"trace.store_mb", "MB"},
		{"harness.pool_max_running", "count"},
		{"jobs.shed", "count"},
		{"fabric.dispatches_per_job", "count"},
		{"fabric.requeues", "count"},
		{"fabric.steals", "count"},
		{"fabric.duplicates", "count"},
		{"fabric.local_units", "count"},
		{"bench.traced_minstr_per_s", "Minstr/s"},
		{"bench.host_probe_ms", "ms"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// deliveredMinstrPerS is the simulated instructions delivered over the
// timed region's wall time.
func (w *workloadResult) deliveredMinstrPerS() float64 { return float64(w.instr) / w.elapsed / 1e6 }

// minstrPerS is the sim_minstr_per_s metric. A sweep reports each
// unit's instructions, and its throughput is that of one pass over
// every distinct unit on both workers, each unit taking its median
// latency: the deadline then cuts no partial pass into the number. A
// service's is the instructions delivered over the wall time.
func (w *workloadResult) minstrPerS() float64 {
	if w.unitInstr == nil {
		return w.deliveredMinstrPerS()
	}
	meds, instr := w.keyMedians()
	ms := 0.0
	for _, m := range meds {
		ms += m
	}
	return float64(instr) / (ms / 1e3 / workers) / 1e6
}

func (w *workloadResult) result(o options, lr layerResult) (result, error) {
	res := result{
		Correct:   len(w.failed) == 0,
		Attempted: max(w.attempted, len(w.failed), 1),
		Failed:    len(w.failed),
		Metrics:   make(map[string]metricValue),
	}
	defs := endToEnd
	k := w.scale()
	vals := map[string]float64{
		"setup_s":          percentile(w.setup, 0.5) * k,
		"sim_minstr_per_s": w.minstrPerS() / k,
		"unit_p50_ms":      w.unitPercentile(0.5) * k,
		"unit_p90_ms":      w.unitPercentile(0.9) * k,
		"peak_rss_mb":      float64(w.rssKB) / 1024,
		"peak_vm_mb":       float64(w.vmKB) / 1024,
	}
	if o.trace == 1 {
		defs = perLayer
		vals = map[string]float64{
			"bench.traced_minstr_per_s": w.minstrPerS() / k,
			"bench.host_probe_ms":       percentile(w.probeMS, 0.5),
		}
		for k, v := range lr.Metrics {
			vals[k] = v
		}
		for k, v := range w.layer {
			vals[k] = v
		}
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// report prints the readable lines that precede the JSON result.
func report(out io.Writer, o options, w *workloadResult, c checks, lr layerResult) {
	p := func(format string, args ...any) { fmt.Fprintf(out, "# "+format+"\n", args...) }
	p("workload=%s seed=%d seconds=%d trace=%d scale=%g", o.workload, o.seed, o.seconds, o.trace, o.scale)
	p("host %s", fingerprint())
	p("host probe median %.4g ms over %d samples (before %s, after %s); the JSON timings are scaled by %.4g/%.4g = %.4f, the lines below are not",
		percentile(w.probeMS, 0.5), len(w.probeMS), fmtMS(w.probeMS[:probeSamples]), fmtMS(w.probeMS[probeSamples:]),
		probeNominalMS, percentile(w.probeMS, 0.5), w.scale())
	p("setup_s %s", summarize(w.setup).format("s"))
	meds, _ := w.keyMedians()
	p("sim_minstr_per_s %.4g Minstr/s; delivered %.4g Minstr in %.3f s = %.4g Minstr/s",
		w.minstrPerS(), float64(w.instr)/1e6, w.elapsed, w.deliveredMinstrPerS())
	unit, key := "one point", "point"
	switch {
	case strings.HasPrefix(o.workload, "service-"):
		unit, key = "one cold job, submit to result", "client and benchmark pair"
	case o.workload == "design-sweep":
		unit, key = "one experiment on one benchmark", "experiment and benchmark"
	}
	p("unit latency (%s) %s", unit, summarize(w.units).format("ms"))
	p("unit latency, every %s weighted equally: median %.4g ms, p90 %.4g ms (n=%d over %d inputs)",
		key, w.unitPercentile(0.5), w.unitPercentile(0.9), len(w.units), len(meds))
	p("peak_rss_mb %.4g MB, peak_vm_mb %.4g MB", float64(w.rssKB)/1024, float64(w.vmKB)/1024)
	p("outputs %d delivered, %d checked against expected, %d recomputed through engine.Run, %d units failed",
		len(w.points), c.expected, c.rerun, len(w.failed))
	for _, n := range w.notes {
		p("%s", n)
	}
	names := make([]string, 0, len(lr.Timings))
	for name := range lr.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := "ns"
		if strings.HasSuffix(name, "_ms") {
			unit = "ms"
		}
		p("%s %s", name, lr.Timings[name].format(unit))
	}
}

func fmtMS(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

// reportFailures prints why units failed, a few at most.
func reportFailures(out io.Writer, failed map[int]string) {
	units := make([]int, 0, len(failed))
	for u := range failed {
		units = append(units, u)
	}
	sort.Ints(units)
	for i, u := range units {
		if i == 5 {
			fmt.Fprintf(out, "benchmark: ... and %d more failed units\n", len(units)-i)
			return
		}
		fmt.Fprintf(out, "benchmark: unit %d failed: %s\n", u, failed[u])
	}
}
