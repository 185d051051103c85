// Package harness drives the experiments of the paper's evaluation
// (§VII): one driver per table/figure, each running the timing
// simulator across the 15 benchmark profiles and rendering the same
// rows/series the paper reports. Benchmarks run in parallel across
// CPUs; results are deterministic regardless. EXPERIMENTS.md records
// paper-vs-measured values produced by these drivers.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"plp/internal/engine"
	"plp/internal/sim"
	"plp/internal/stats"
	"plp/internal/trace"
)

// Options bounds a harness run.
type Options struct {
	// Instructions per benchmark run (default 2M; the paper uses 100M).
	Instructions uint64
	// Benches restricts the benchmark set (default: all 15).
	Benches []string
	// FullMemory evaluates the "_full" configurations.
	FullMemory bool
	// Parallel caps worker goroutines (0 = GOMAXPROCS).
	Parallel int
	// Cancel, when non-nil, threads into every engine run the drivers
	// schedule through the shared runner (engine Config.Cancel): the
	// cooperative stop the job service uses to abandon an experiment
	// mid-run, usually the job's context. A cancelled driver still
	// returns its Experiment, but the partial numbers are meaningless —
	// callers that set Cancel must discard the result once it has
	// fired. Nil (the default) leaves every run bit-identical to the
	// unhooked engine.
	Cancel engine.Canceler
	// Warmup streams this many instructions through the caches before
	// each run's measured region (engine Config.Warmup). Besides its
	// methodological role, a non-zero warm-up is what the memo's
	// checkpoint path amortizes across schemes. Default 0.
	Warmup uint64
	// Memo, when non-nil, memoizes finished results and warm-up
	// checkpoints across this runner's runs — and across sweeps, when
	// callers share one Memo. Memoized results are bit-identical to
	// cold runs. Nil (the default) runs everything cold.
	Memo *Memo
	// Traces is the store whose batches the memo's warm-up checkpoints
	// replay; callers that share one share each (bench, seed,
	// instructions) batch across their runners. Nil gives a runner with
	// a Memo a store of its own. Runs without a checkpoint never read
	// it: they read their arena's recording.
	Traces *trace.Store
	// Probe, when non-nil, observes the fan-out pool's occupancy
	// (queue depth, running, completed) across the runner's sweeps.
	Probe *PoolProbe
}

func (o *Options) fill() {
	if o.Instructions == 0 {
		o.Instructions = 2_000_000
	}
}

func (o Options) profiles() []trace.Profile {
	all := trace.Profiles()
	if len(o.Benches) == 0 {
		return all
	}
	var out []trace.Profile
	for _, name := range o.Benches {
		if p, ok := trace.ProfileByName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	ID          string
	Description string
	Table       *stats.Table
	// Summary holds the headline numbers (e.g. geometric means) keyed
	// by series name, for EXPERIMENTS.md and assertions.
	Summary map[string]float64
}

// Markdown renders the experiment as a markdown section.
func (e *Experiment) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n%s\n\n", e.ID, e.Description)
	b.WriteString(e.Table.Markdown())
	if len(e.Summary) > 0 {
		b.WriteString("\n")
		keys := make([]string, 0, len(e.Summary))
		for k := range e.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "- %s: %.3f\n", k, e.Summary[k])
		}
	}
	return b.String()
}

// String renders the experiment as text.
func (e *Experiment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Description)
	b.WriteString(e.Table.String())
	if len(e.Summary) > 0 {
		keys := make([]string, 0, len(e.Summary))
		for k := range e.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%-28s %.3f\n", k, e.Summary[k])
		}
	}
	return b.String()
}

// runner caches baseline runs within one harness invocation.
type runner struct {
	o     Options
	mu    sync.Mutex
	bases map[string]*baseEntry
}

func newRunner(o Options) *runner {
	o.fill()
	if o.Memo != nil && o.Traces == nil {
		o.Traces = trace.NewStore(0)
	}
	return &runner{o: o, bases: make(map[string]*baseEntry)}
}

func (r *runner) cfg(s engine.Scheme) engine.Config {
	return engine.Config{
		Scheme:       s,
		Instructions: r.o.Instructions,
		Warmup:       r.o.Warmup,
		FullMemory:   r.o.FullMemory,
		Cancel:       r.o.Cancel,
	}
}

// normalized runs cfg on p and normalizes to the secure_WB baseline.
func (r *runner) normalized(cfg engine.Config, p trace.Profile) float64 {
	base := r.baseline(p)
	res := r.run(cfg, p)
	return float64(res.Cycles) / float64(base.Cycles)
}

// columnGmeans computes per-column geometric means over rows.
func columnGmeans(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for c := range out {
		for i, row := range rows {
			col[i] = row[c]
		}
		out[c] = stats.GeoMean(col)
	}
	return out
}

// columnMeans computes per-column arithmetic means over rows.
func columnMeans(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for c := range out {
		s := 0.0
		for _, row := range rows {
			s += row[c]
		}
		out[c] = s / float64(len(rows))
	}
	return out
}

// TableV reproduces Table V: persists per kilo-instruction under
// sp_full (all stores), secure_WB_full (writebacks), sp (non-stack
// stores) and o3 (epoch stores), with the paper's values side by side.
func TableV(o Options) *Experiment {
	r := newRunner(o)
	profs := r.o.profiles()
	rows := make([][]float64, len(profs))
	// Each column fixes its own memory mode, whatever Options.FullMemory.
	cfg := func(s engine.Scheme, full bool) engine.Config {
		c := r.cfg(s)
		c.FullMemory = full
		return c
	}
	r.parallel(profs, func(i int, p trace.Profile) {
		spFull := r.run(cfg(engine.SchemeSP, true), p)
		wbFull := r.run(cfg(engine.SchemeSecureWB, true), p)
		sp := r.run(cfg(engine.SchemeSP, false), p)
		o3 := r.run(cfg(engine.SchemeO3, false), p)
		rows[i] = []float64{spFull.PPKI, p.Paper.SpFull, wbFull.PPKI, p.Paper.WBFull,
			sp.PPKI, p.Paper.Sp, o3.PPKI, p.Paper.O3}
	})
	tab := stats.NewTable("benchmark",
		"sp_full", "paper", "secWB_full", "paper", "sp", "paper", "o3", "paper")
	for i, p := range profs {
		tab.AddFloats(p.Name, "%.2f", rows[i]...)
	}
	avgs := columnMeans(rows)
	tab.AddFloats("Average", "%.2f", avgs...)
	return &Experiment{
		ID:          "TableV",
		Description: "persists per kilo-instruction (PPKI), measured vs paper",
		Table:       tab,
		Summary: map[string]float64{
			"avg sp_full PPKI":    avgs[0],
			"avg secWB_full PPKI": avgs[2],
			"avg sp PPKI":         avgs[4],
			"avg o3 PPKI":         avgs[6],
		},
	}
}

// normalizedSweep runs one configuration variant per column for every
// benchmark and renders benchmark rows plus a gmean row.
func (r *runner) normalizedSweep(id, desc string, header []string,
	cfgFor func(col int) engine.Config, format string) *Experiment {
	profs := r.o.profiles()
	cols := len(header)
	rows := make([][]float64, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		row := make([]float64, cols)
		for c := 0; c < cols; c++ {
			row[c] = r.normalized(cfgFor(c), p)
		}
		rows[i] = row
	})
	tab := stats.NewTable(append([]string{"benchmark"}, header...)...)
	for i, p := range profs {
		tab.AddFloats(p.Name, format, rows[i]...)
	}
	gms := columnGmeans(rows)
	tab.AddFloats("gmean", format, gms...)
	summary := map[string]float64{}
	for c, h := range header {
		summary["gmean "+h] = gms[c]
	}
	return &Experiment{ID: id, Description: desc, Table: tab, Summary: summary}
}

// Fig8 reproduces Fig. 8: execution time of the SP schemes (unordered,
// sp, pipeline) normalized to secure_WB (log2 in the paper; raw ratios
// here), with geometric means.
func Fig8(o Options) *Experiment {
	r := newRunner(o)
	schemes := []engine.Scheme{engine.SchemeUnordered, engine.SchemeSP, engine.SchemePipeline}
	return r.normalizedSweep("Fig8",
		"SP schemes normalized to secure_WB (paper gmeans: sp 7.2x / 30.7x full, pipeline 2.1x / 6.9x full)",
		[]string{"unordered", "sp", "pipeline"},
		func(c int) engine.Config { return r.cfg(schemes[c]) },
		"%.2f")
}

// Fig9 reproduces Fig. 9: sp normalized execution time with MAC
// latencies {0,20,40,80} and the ideal metadata-cache configuration.
func Fig9(o Options) *Experiment {
	r := newRunner(o)
	lats := []sim.Cycle{0, 20, 40, 80}
	return r.normalizedSweep("Fig9",
		"sp vs MAC latency and ideal metadata caches (paper: MAC is the key SP bottleneck; ideal ~negligible)",
		[]string{"mac0", "mac20", "mac40", "mac80", "idealMDC"},
		func(c int) engine.Config {
			if c < len(lats) {
				return r.cfg(engine.SchemeSP).WithMACLatency(lats[c])
			}
			cfg := r.cfg(engine.SchemeSP)
			cfg.IdealMDC = true
			return cfg
		},
		"%.2f")
}

// Fig10 reproduces Fig. 10: epoch-persistency schemes (o3, coalescing)
// normalized to secure_WB, plus the coalescing node-update reduction.
func Fig10(o Options) *Experiment {
	r := newRunner(o)
	profs := r.o.profiles()
	rows := make([][]float64, len(profs))
	reds := make([]float64, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		base := r.baseline(p)
		o3 := r.run(r.cfg(engine.SchemeO3), p)
		co := r.run(r.cfg(engine.SchemeCoalescing), p)
		rows[i] = []float64{
			float64(o3.Cycles) / float64(base.Cycles),
			float64(co.Cycles) / float64(base.Cycles),
		}
		reds[i] = co.CoalescingReduction()
	})
	tab := stats.NewTable("benchmark", "o3", "coalescing")
	for i, p := range profs {
		tab.AddFloats(p.Name, "%.3f", rows[i]...)
	}
	gms := columnGmeans(rows)
	tab.AddFloats("gmean", "%.3f", gms...)
	return &Experiment{
		ID:          "Fig10",
		Description: "EP schemes normalized to secure_WB (paper gmeans: o3 1.207, coalescing 1.202; updates reduced 26.1%)",
		Table:       tab,
		Summary: map[string]float64{
			"gmean o3":                  gms[0],
			"gmean coalescing":          gms[1],
			"mean coalescing reduction": stats.Mean(reds),
		},
	}
}

// EpochSizes is the sweep of Figs. 11 and 12.
var EpochSizes = []int{4, 8, 16, 32, 64, 128, 256}

// Fig11 reproduces Fig. 11: PPKI for different epoch sizes.
func Fig11(o Options) *Experiment {
	r := newRunner(o)
	profs := r.o.profiles()
	rows := make([][]float64, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		row := make([]float64, len(EpochSizes))
		for c, es := range EpochSizes {
			cfg := r.cfg(engine.SchemeO3)
			cfg.EpochSize = es
			row[c] = r.run(cfg, p).PPKI
		}
		rows[i] = row
	})
	header := []string{"benchmark"}
	for _, es := range EpochSizes {
		header = append(header, fmt.Sprintf("e%d", es))
	}
	tab := stats.NewTable(header...)
	for i, p := range profs {
		tab.AddFloats(p.Name, "%.2f", rows[i]...)
	}
	avgs := columnMeans(rows)
	tab.AddFloats("Average", "%.2f", avgs...)
	summary := map[string]float64{}
	for c, es := range EpochSizes {
		summary[fmt.Sprintf("avg PPKI epoch %d", es)] = avgs[c]
	}
	return &Experiment{
		ID:          "Fig11",
		Description: "persists per kilo-instruction vs epoch size (paper: monotonically decreasing)",
		Table:       tab,
		Summary:     summary,
	}
}

// Fig12 reproduces Fig. 12: coalescing execution time (normalized to
// secure_WB) for different epoch sizes.
func Fig12(o Options) *Experiment {
	r := newRunner(o)
	header := make([]string, len(EpochSizes))
	for c, es := range EpochSizes {
		header[c] = fmt.Sprintf("e%d", es)
	}
	e := r.normalizedSweep("Fig12",
		"coalescing vs epoch size, normalized to secure_WB (paper: strong improvement then flattening)",
		header,
		func(c int) engine.Config {
			cfg := r.cfg(engine.SchemeCoalescing)
			cfg.EpochSize = EpochSizes[c]
			return cfg
		},
		"%.2f")
	// Rename summary keys to the documented form.
	summary := map[string]float64{}
	for c, es := range EpochSizes {
		summary[fmt.Sprintf("gmean epoch %d", es)] = e.Summary["gmean "+header[c]]
	}
	e.Summary = summary
	return e
}

// WPQSweep reproduces the §VII WPQ study: coalescing with 4..64
// entries (paper: <32 hurts, ~12% at 4; >32 flat).
func WPQSweep(o Options) *Experiment {
	r := newRunner(o)
	sizes := []int{4, 8, 16, 32, 64}
	header := make([]string, len(sizes))
	for c, w := range sizes {
		header[c] = fmt.Sprintf("wpq%d", w)
	}
	e := r.normalizedSweep("WPQ",
		"coalescing vs WPQ size (paper: <32 entries hurt, larger than 32 flat)",
		header,
		func(c int) engine.Config {
			cfg := r.cfg(engine.SchemeCoalescing)
			cfg.WPQEntries = sizes[c]
			return cfg
		},
		"%.3f")
	summary := map[string]float64{}
	for c, w := range sizes {
		summary[fmt.Sprintf("gmean wpq %d", w)] = e.Summary["gmean "+header[c]]
	}
	e.Summary = summary
	return e
}

// MDCSweep reproduces the §VII metadata-cache study: 32..256KB (paper:
// up to 2% difference).
func MDCSweep(o Options) *Experiment {
	r := newRunner(o)
	sizes := []int{32, 64, 128, 256}
	header := make([]string, len(sizes))
	for c, s := range sizes {
		header[c] = fmt.Sprintf("%dKB", s)
	}
	return r.normalizedSweep("MDC",
		"coalescing vs metadata cache capacity (paper: <=2% spread)",
		header,
		func(c int) engine.Config {
			cfg := r.cfg(engine.SchemeCoalescing)
			cfg.CtrCacheKB, cfg.MACCacheKB, cfg.BMTCacheKB = sizes[c], sizes[c], sizes[c]
			return cfg
		},
		"%.3f")
}

// LLCSweep reproduces the §VII LLC study: 1..4MB (paper: coalescing
// 20.2% -> 22.8%). Baselines are re-run at each LLC size.
func LLCSweep(o Options) *Experiment {
	r := newRunner(o)
	sizes := []int{1024, 2048, 4096}
	profs := r.o.profiles()
	rows := make([][]float64, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		row := make([]float64, len(sizes))
		for c, s := range sizes {
			bcfg := r.cfg(engine.SchemeSecureWB)
			bcfg.LLCKB = s
			base := r.run(bcfg, p)
			cfg := r.cfg(engine.SchemeCoalescing)
			cfg.LLCKB = s
			res := r.run(cfg, p)
			row[c] = float64(res.Cycles) / float64(base.Cycles)
		}
		rows[i] = row
	})
	tab := stats.NewTable("benchmark", "1MB", "2MB", "4MB")
	for i, p := range profs {
		tab.AddFloats(p.Name, "%.3f", rows[i]...)
	}
	gms := columnGmeans(rows)
	tab.AddFloats("gmean", "%.3f", gms...)
	return &Experiment{
		ID:          "LLC",
		Description: "coalescing vs LLC capacity (paper: 20.2% -> 22.8% from 4MB to 1MB)",
		Table:       tab,
		Summary: map[string]float64{
			"gmean 1MB": gms[0], "gmean 2MB": gms[1], "gmean 4MB": gms[2],
		},
	}
}

// CoalesceStats reproduces the §VII coalescing-effectiveness numbers:
// the fraction of BMT node updates removed per benchmark.
func CoalesceStats(o Options) *Experiment {
	r := newRunner(o)
	profs := r.o.profiles()
	type row struct {
		updates, noCoal uint64
		red             float64
	}
	rows := make([]row, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		res := r.run(r.cfg(engine.SchemeCoalescing), p)
		rows[i] = row{res.BMTNodeUpdates, res.BMTUpdatesNoCoal, res.CoalescingReduction()}
	})
	tab := stats.NewTable("benchmark", "nodeUpdates", "withoutCoal", "reduction")
	var reds []float64
	for i, p := range profs {
		reds = append(reds, rows[i].red)
		tab.AddRow(p.Name,
			fmt.Sprintf("%d", rows[i].updates),
			fmt.Sprintf("%d", rows[i].noCoal),
			fmt.Sprintf("%.1f%%", rows[i].red*100))
	}
	tab.AddRow("Average", "", "", fmt.Sprintf("%.1f%%", stats.Mean(reds)*100))
	return &Experiment{
		ID:          "Coalesce",
		Description: "BMT node updates removed by coalescing (paper: 26.1% average)",
		Table:       tab,
		Summary:     map[string]float64{"mean reduction": stats.Mean(reds)},
	}
}

// All returns every experiment driver keyed by ID.
func All() map[string]func(Options) *Experiment {
	return map[string]func(Options) *Experiment{
		"tableV":   TableV,
		"fig8":     Fig8,
		"fig9":     Fig9,
		"fig10":    Fig10,
		"fig11":    Fig11,
		"fig12":    Fig12,
		"wpq":      WPQSweep,
		"mdc":      MDCSweep,
		"llc":      LLCSweep,
		"coalesce": CoalesceStats,
		"variance": Variance,
		"nvm":      NVMSweep,
		"latency":  Latency,
		"attrib":   Attrib,
		"rivals":   Rivals,
		"recovery": Recovery,
	}
}

// Order lists experiment IDs in presentation order.
func Order() []string {
	return []string{"tableV", "fig8", "fig9", "fig10", "fig11", "fig12",
		"wpq", "mdc", "llc", "coalesce", "variance", "nvm", "latency", "attrib",
		"rivals", "recovery"}
}
