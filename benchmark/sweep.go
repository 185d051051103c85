package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"plp/internal/harness"
	"plp/internal/trace"
)

// sweepResult is what a sweep child reports after its timed region.
type sweepResult struct {
	ElapsedS  float64            `json:"elapsedS"`
	Instr     uint64             `json:"instr"`
	UnitMS    []float64          `json:"unitMS"`
	UnitInstr []uint64           `json:"unitInstr"`
	Attempted int                `json:"attempted"`
	Points    []point            `json:"points"`
	HWMKB     uint64             `json:"hwmKB"`
	PeakKB    uint64             `json:"peakKB"`
	Layer     map[string]float64 `json:"layer"`
}

// readyPrefix starts the line a sweep child prints when its set-up is
// done, carrying the wall-clock time in nanoseconds: the parent takes
// set-up time as that instant minus the instant it spawned the child.
const readyPrefix = "ready "

// childSweep runs one sweep workload inside a fresh process, so its
// memory and set-up belong to that workload alone.
func childSweep(o options, stdout io.Writer) error {
	var work func() sweepResult
	switch o.workload {
	case "paper-sweep":
		work = preparePaper(o)
	case "design-sweep":
		work = prepareDesign(o)
	default:
		return fmt.Errorf("%s is not a sweep workload", o.workload)
	}
	warmUp()
	fmt.Fprintf(stdout, "%s%d\n", readyPrefix, time.Now().UnixNano())
	if o.setupOnly {
		return nil
	}
	res := work()
	hwm, peak, err := procMemory(0)
	if err != nil {
		return err
	}
	res.HWMKB, res.PeakKB = hwm, peak
	return json.NewEncoder(stdout).Encode(res)
}

// warmUp runs a minimal sweep on both workers before the clock starts,
// so the simulator's lazy one-time set-up (each worker's engine arena
// and its precomputed BMT path table) counts as set-up time instead of
// slowing the first timed points.
func warmUp() {
	harness.Record(harness.RecordOptions{
		Options:     harness.Options{Instructions: 1000, Benches: benchNames()[:workers], Parallel: workers},
		Schemes:     paperSchemes,
		NoTelemetry: true,
	})
}

// preparePaper sets up the paper sweep: harness.Record over the twelve
// schemes and all 15 benchmarks, round after round in
// seed-permuted benchmark order, with no warm-up, telemetry, memo or
// trace store. Every point generates its own trace: this is the raw
// simulator hot path. One long Record call (rather than one per
// round) keeps both workers busy up to the deadline.
func preparePaper(o options) func() sweepResult {
	instr := sweepInstructions(o.seed, paperInstr, o.scale)
	// Enough rounds that the deadline, not the list, ends the sweep.
	rounds := min(max(int(float64(4*o.seconds)/o.scale), 2), 200)
	var benches []string
	for r := 0; r < rounds; r++ {
		benches = append(benches, roundOrder(o.seed, r)...)
	}
	probe := &harness.PoolProbe{}
	ro := harness.RecordOptions{
		Options: harness.Options{
			Instructions: instr,
			Benches:      benches,
			Parallel:     workers,
			Probe:        probe,
		},
		Schemes:     paperSchemes,
		NoTelemetry: true,
	}
	dur := time.Duration(o.seconds) * time.Second
	return func() sweepResult {
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		defer cancel()
		start := time.Now()
		// The deadline ends the sweep: RecordContext returns the points
		// that completed and drops the ones it cut short.
		runs, _ := harness.RecordContext(ctx, ro)
		res := sweepResult{ElapsedS: time.Since(start).Seconds(), Attempted: len(runs)}
		for i, r := range runs {
			res.Instr += r.Instructions
			res.UnitMS = append(res.UnitMS, float64(r.WallNS)/1e6)
			res.UnitInstr = append(res.UnitInstr, r.Instructions)
			res.Points = append(res.Points, point{Unit: i, Key: pointKey(r.Scheme, r.Bench, r.Instructions), Value: runDigest(r)})
		}
		res.Layer = memoLayer(harness.MemoStats{}, 0, trace.StoreStats{}, 0, probe)
		return res
	}
}

// designSweep is the design-space workload: experiments fig12, wpq and
// llc, one benchmark at a time, over the memo stack. A unit is one
// experiment on one benchmark; two workers take units in order, so a
// benchmark's three experiments overlap and share the memo's points and
// warm-up checkpoints the way a user's design sweep does.
type designSweep struct {
	instr, warm uint64
	seed        int64
	probe       *harness.PoolProbe

	mu     sync.Mutex
	next   int                  // next unit index
	rounds map[int]*designRound // rounds with unfinished units
	memo   harness.MemoStats    // summed over ended rounds
	store  trace.StoreStats     // summed over ended rounds
	// memoPeak and storePeak are the largest resident bytes any round
	// ended with.
	memoPeak, storePeak uint64
}

// designRound is one pass over every benchmark. Each round has a fresh
// memo and trace store, so every round does the same work: the memo
// serves what the experiments share within a round, never what an
// earlier round computed. A worker that finds its round fully handed
// out starts on the next one, so rounds overlap at their ends.
type designRound struct {
	memo  *harness.Memo
	store *trace.Store
	order []string
	left  int // units not yet finished
}

func unitsPerRound() int { return len(benchNames()) * len(designExperiments) }

// prepareDesign sets up the design sweep; the first round's memo and
// trace store exist before the clock starts.
func prepareDesign(o options) func() sweepResult {
	d := &designSweep{
		instr:  sweepInstructions(o.seed, designInstr, o.scale),
		warm:   scaled(designWarmup, o.scale),
		seed:   o.seed,
		probe:  &harness.PoolProbe{},
		rounds: make(map[int]*designRound),
	}
	d.round(0)
	return func() sweepResult { return d.run(time.Duration(o.seconds) * time.Second) }
}

// designSims counts the simulations each design experiment asks for on
// one benchmark, memo hits included, from a tiny run of it over a
// fresh memo: every simulation an experiment asks for goes through the
// memo. It runs after the timed region, so it adds to neither the
// set-up nor the measured time.
func designSims() map[string]uint64 {
	sims := make(map[string]uint64)
	for _, exp := range designExperiments {
		m := harness.NewMemo(harness.DefaultMemoBytes)
		harness.All()[exp](harness.Options{Instructions: 1000, Warmup: 1000, Benches: benchNames()[:1], Parallel: 1, Memo: m})
		s := m.Stats()
		sims[exp] = s.Hits + s.Misses
	}
	return sims
}

// round returns round r, creating it on first use. d.mu held, or no
// worker running yet.
func (d *designSweep) round(r int) *designRound {
	rd, ok := d.rounds[r]
	if !ok {
		rd = &designRound{
			memo:  harness.NewMemo(harness.DefaultMemoBytes),
			store: trace.NewStore(trace.DefaultStoreBytes),
			order: roundOrder(d.seed, r),
			left:  unitsPerRound(),
		}
		d.rounds[r] = rd
	}
	return rd
}

// take hands out the next unit: its index, round, experiment and
// benchmark. Within a round, units go benchmark by benchmark.
func (d *designSweep) take() (idx, r int, rd *designRound, exp, bench string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	idx = d.next
	d.next++
	r, j := idx/unitsPerRound(), idx%unitsPerRound()
	rd = d.round(r)
	return idx, r, rd, designExperiments[j%len(designExperiments)], rd.order[j/len(designExperiments)]
}

// finish records that one of round r's units ended; the last one ends
// the round, releasing its memo and traces.
func (d *designSweep) finish(r int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rd := d.rounds[r]
	if rd.left--; rd.left == 0 {
		d.end(r)
	}
}

// end folds round r's counters into the totals and drops the round.
// d.mu held.
func (d *designSweep) end(r int) {
	rd := d.rounds[r]
	m, s := rd.memo.Stats(), rd.store.Stats()
	d.memo.Hits += m.Hits
	d.memo.Misses += m.Misses
	d.memo.CheckpointHits += m.CheckpointHits
	d.memo.CheckpointMisses += m.CheckpointMisses
	d.store.Hits += s.Hits
	d.store.Misses += s.Misses
	d.memoPeak = max(d.memoPeak, m.Bytes)
	d.storePeak = max(d.storePeak, s.Bytes)
	delete(d.rounds, r)
}

func (d *designSweep) run(dur time.Duration) sweepResult {
	var (
		mu   sync.Mutex
		res  sweepResult
		exps []string // each unit's experiment
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				idx, r, rd, exp, bench := d.take()
				t := time.Now()
				e := harness.All()[exp](harness.Options{
					Instructions: d.instr,
					Warmup:       d.warm,
					Benches:      []string{bench},
					Parallel:     1,
					Memo:         rd.memo,
					Traces:       rd.store,
					Probe:        d.probe,
				})
				lat := time.Since(t)
				row, err := tableRow(e, bench)
				if err != nil {
					row = "error: " + err.Error()
				}
				d.finish(r)
				mu.Lock()
				res.UnitMS = append(res.UnitMS, float64(lat.Nanoseconds())/1e6)
				exps = append(exps, exp)
				res.Points = append(res.Points, point{Unit: idx, Key: rowKey(exp, bench, d.instr, d.warm), Value: row})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.ElapsedS = time.Since(start).Seconds()
	sims := designSims()
	for _, exp := range exps {
		res.UnitInstr = append(res.UnitInstr, sims[exp]*d.instr)
	}
	for r := range d.rounds {
		d.end(r) // rounds the deadline cut short
	}
	res.Attempted = len(res.UnitMS)
	// Every simulation an experiment asks for goes through the memo,
	// hit or miss, so the memo's traffic counts the points delivered.
	res.Instr = (d.memo.Hits + d.memo.Misses) * d.instr
	res.Layer = memoLayer(d.memo, d.memoPeak, d.store, d.storePeak, d.probe)
	return res
}

// tableRow returns what an experiment on one benchmark delivered: the
// benchmark's table cells as printed, then the experiment's summary
// values at full precision. With one benchmark each summary value is
// a single cell's ratio of cycles, so the second half tells apart
// results the printed rounding hides.
func tableRow(e *harness.Experiment, bench string) (string, error) {
	for _, line := range strings.Split(e.Table.Markdown(), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) < 2 || strings.TrimSpace(cells[0]) != bench {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		vals := make([]float64, 0, len(e.Summary))
		for _, v := range e.Summary {
			vals = append(vals, v)
		}
		return rowValue(cells[1:], vals), nil
	}
	return "", fmt.Errorf("%s table has no %s row", e.ID, bench)
}

// rowValue renders a design-sweep output: the printed cells in column
// order, then the full-precision values in ascending order.
func rowValue(cells []string, vals []float64) string {
	sort.Float64s(vals)
	exact := make([]string, len(vals))
	for i, v := range vals {
		exact[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(cells, " ") + " | " + strings.Join(exact, " ")
}

// memoLayer gives the memo-stack and pool metrics every workload
// reports; the fabric and job-queue counters are zero in a sweep,
// which has neither.
func memoLayer(m harness.MemoStats, memoBytes uint64, s trace.StoreStats, storeBytes uint64, probe *harness.PoolProbe) map[string]float64 {
	return map[string]float64{
		"harness.memo_hit_rate":       ratio(float64(m.Hits), float64(m.Hits+m.Misses)),
		"harness.checkpoint_hit_rate": ratio(float64(m.CheckpointHits), float64(m.CheckpointHits+m.CheckpointMisses)),
		"harness.memo_mb":             float64(memoBytes) / (1 << 20),
		"trace.store_hit_rate":        ratio(float64(s.Hits), float64(s.Hits+s.Misses)),
		"trace.store_mb":              float64(storeBytes) / (1 << 20),
		"harness.pool_max_running":    float64(probe.MaxRunning()),
		"jobs.shed":                   0,
		"fabric.dispatches_per_job":   0,
		"fabric.requeues":             0,
		"fabric.steals":               0,
		"fabric.duplicates":           0,
		"fabric.local_units":          0,
	}
}
