package main

import (
	"encoding/json"
	"io"
	"time"

	"plp/internal/addr"
	"plp/internal/bmt"
	"plp/internal/cache"
	"plp/internal/engine"
	"plp/internal/ett"
	"plp/internal/harness"
	"plp/internal/hier"
	"plp/internal/layout"
	"plp/internal/mac"
	"plp/internal/nvm"
	"plp/internal/ptt"
	"plp/internal/sim"
	"plp/internal/trace"
	"plp/internal/wpq"
)

// timedSource wraps the synthetic trace generator and times every
// batch the engine pulls from it, which splits a run's host time into
// trace generation and the rest without touching the engine. It
// implements trace.BatchSource, so the engine takes the same batched
// path it takes with a bare generator.
type timedSource struct {
	gen  *trace.Generator
	fill time.Duration
	ops  uint64
}

func (s *timedSource) Next() trace.Op {
	s.ops++
	return s.gen.Next()
}

func (s *timedSource) Progress() uint64 { return s.gen.Progress() }

func (s *timedSource) Fill(buf []trace.Op, limit uint64) int {
	t := time.Now()
	n := s.gen.Fill(buf, limit)
	s.fill += time.Since(t)
	s.ops += uint64(n)
	return n
}

// layerResult is what the layer-replay child reports: the per-layer
// metric values, and the distributions behind the timed ones.
type layerResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Timings map[string]timing  `json:"timings"`
}

// childLayers times each simulator layer through its public entry
// points on the first layerInstr instructions of all 15 benchmarks.
func childLayers(o options, stdout io.Writer) error {
	res := layerResult{Metrics: make(map[string]float64), Timings: make(map[string]timing)}
	instr := scaled(layerInstr, o.scale)
	engineReplay(instr, res)
	componentReplay(instr, res)
	return json.NewEncoder(stdout).Encode(res)
}

// engineReplay runs every scheme on every benchmark through
// engine.RunSource over a timedSource, on the benchmark's two workers.
func engineReplay(instr uint64, res layerResult) {
	type job struct {
		s engine.Scheme
		p trace.Profile
	}
	var jobs []job
	for _, p := range trace.Profiles() {
		for _, s := range paperSchemes {
			jobs = append(jobs, job{s, p})
		}
	}
	type out struct {
		run, fill time.Duration
		ops       uint64
		r         engine.Result
	}
	outs := make([]out, len(jobs))
	arenas := make(chan *engine.Arena, workers)
	for i := 0; i < workers; i++ {
		arenas <- engine.NewArena()
	}
	harness.Fan(len(jobs), workers, func(i int) {
		ar := <-arenas
		src := &timedSource{gen: trace.NewGenerator(jobs[i].p)}
		t := time.Now()
		r := engine.RunSource(engine.Config{Scheme: jobs[i].s, Instructions: instr, Arena: ar}, jobs[i].p.Name, jobs[i].p.IPC, src)
		outs[i] = out{run: time.Since(t), fill: src.fill, ops: src.ops, r: r}
		arenas <- ar
	})

	var runMS []float64
	perScheme := make(map[engine.Scheme][]float64)
	var fill, run time.Duration
	var ops, instrs, persists, bmtUpdates, nvmWrites uint64
	var ctr, macR, bmtR float64
	for i, x := range outs {
		runMS = append(runMS, float64(x.run.Nanoseconds())/1e6)
		perScheme[jobs[i].s] = append(perScheme[jobs[i].s], float64(x.run.Nanoseconds())/float64(x.r.Instructions))
		fill += x.fill
		run += x.run
		ops += x.ops
		instrs += x.r.Instructions
		persists += x.r.Persists
		bmtUpdates += x.r.BMTNodeUpdates
		nvmWrites += x.r.NVMWrites
		ctr += x.r.CtrHitRate
		macR += x.r.MACHitRate
		bmtR += x.r.BMTHitRate
	}
	t := summarize(runMS)
	res.Timings["engine.run_ms"] = t
	res.Metrics["engine.run_ms_p50"] = t.Median
	res.Metrics["engine.run_ms_p90"] = percentile(runMS, 0.9)
	for s, xs := range perScheme {
		name := "engine.ns_per_instr." + string(s)
		res.Timings[name] = summarize(xs)
		res.Metrics[name] = percentile(xs, 0.5)
	}
	res.Metrics["trace.fill_ns_per_op"] = ratio(float64(fill.Nanoseconds()), float64(ops))
	res.Metrics["trace.share"] = ratio(float64(fill), float64(run))
	n := float64(len(outs))
	res.Metrics["engine.persists_per_kinstr"] = ratio(float64(persists), float64(instrs)/1000)
	res.Metrics["engine.bmt_updates_per_persist"] = ratio(float64(bmtUpdates), float64(persists))
	res.Metrics["nvm.writes_per_kinstr"] = ratio(float64(nvmWrites), float64(instrs)/1000)
	res.Metrics["cache.ctr_hit_rate"] = ctr / n
	res.Metrics["cache.mac_hit_rate"] = macR / n
	res.Metrics["cache.bmt_hit_rate"] = bmtR / n
}

// The machine the component replays model: the engine's Table III
// defaults (9-level, 8-ary BMT; 128 KB 8-way metadata caches; a 4 MB
// 32-way LLC; a 32-entry WPQ; a 64-entry PTT; 2 ETT slots; 40-cycle
// MACs; 32-store epochs).
const (
	bmtLevels   = 9
	macLatency  = sim.Cycle(40)
	mdcKB       = 128
	mdcWays     = 8
	llcKB       = 4096
	llcWays     = 32
	wpqEntries  = 32
	pttEntries  = 64
	ettSlots    = 2
	epochStores = 32
	// chunk is how many operations one timing sample covers.
	chunk = 1024
)

// persistOp is one persisted store of a replayed stream: its block and
// the core cycle it issues at (one instruction per cycle).
type persistOp struct {
	block addr.Block
	at    sim.Cycle
}

// componentReplay drives each component with the operation stream of
// every benchmark, the way the engine drives it, and times chunk
// operations at a time.
func componentReplay(instr uint64, res layerResult) {
	topo := bmt.MustNewTopology(bmtLevels, 8)
	lay := layout.MustNew(uint64(trace.TotalBlocks), topo)
	pages := (uint64(trace.TotalBlocks) + addr.BlocksPerPage - 1) / addr.BlocksPerPage
	paths := bmt.NewPathTable(topo, pages)
	leafIndex := func(b addr.Block) uint64 { return uint64(addr.PageOfBlock(b)) % topo.Leaves() }

	samples := make(map[string][]float64)
	var sink uint64
	timeChunks := func(name string, n, perItem int, body func(lo, hi int)) {
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			t := time.Now()
			body(lo, hi)
			samples[name] = append(samples[name], float64(time.Since(t).Nanoseconds())/float64((hi-lo)*perItem))
		}
	}
	mdc := func(name string) *cache.Cache {
		return cache.MustNew(cache.Config{Name: name, SizeBytes: mdcKB << 10, LineBytes: addr.BlockBytes, Ways: mdcWays, Policy: cache.WriteBack})
	}
	levelCost := func(_ int, start sim.Cycle) sim.Cycle { return start + macLatency }
	epochCost := func(_, _ int, start sim.Cycle) sim.Cycle { return start + macLatency }

	for _, p := range trace.Profiles() {
		ops, persists := replayStream(p, instr)

		h := hier.Default(llcKB, llcWays)
		timeChunks("hier.ns_per_access", len(ops), 1, func(lo, hi int) {
			for _, op := range ops[lo:hi] {
				sink += uint64(h.Access(cache.Line(op.Block), op.Kind == trace.OpStore))
			}
		})

		ctrC, macC, bmtC := mdc("ctr"), mdc("mac"), mdc("bmt")
		timeChunks("cache.ns_per_access", len(persists), 2+bmtLevels, func(lo, hi int) {
			for _, po := range persists[lo:hi] {
				ctrC.Access(cache.Line(addr.PageOfBlock(po.block)), true)
				macC.Access(cache.Line(mac.BlockOf(po.block)), true)
				for _, l := range paths.Path(leafIndex(po.block)) {
					bmtC.Access(cache.Line(uint64(l)/8), true)
				}
			}
		})

		timeChunks("bmt.ns_per_path", len(persists), 1, func(lo, hi int) {
			for _, po := range persists[lo:hi] {
				for _, l := range paths.Path(leafIndex(po.block)) {
					sink += uint64(l)
				}
			}
		})

		mem := nvm.New(nvm.DefaultConfig())
		timeChunks("nvm.ns_per_write", len(persists), 3, func(lo, hi int) {
			for _, po := range persists[lo:hi] {
				sink += uint64(mem.Write(lay.DataLine(po.block), po.at))
				sink += uint64(mem.Write(lay.CtrLine(addr.PageOfBlock(po.block)), po.at))
				sink += uint64(mem.Write(lay.MACLine(po.block), po.at))
			}
		})

		q := wpq.New(wpqEntries)
		walk := macLatency * bmtLevels
		timeChunks("wpq.ns_per_admit", len(persists), 1, func(lo, hi int) {
			for _, po := range persists[lo:hi] {
				q.Occupy(q.Admit(po.at) + walk)
			}
		})

		tab := ptt.New(bmtLevels, pttEntries)
		timeChunks("ptt.ns_per_persist", len(persists), 1, func(lo, hi int) {
			for _, po := range persists[lo:hi] {
				_, done := tab.Persist(po.at, levelCost)
				sink += uint64(done)
			}
		})

		macUnit := sim.Resource{Latency: macLatency, Initiation: 1}
		timeChunks("sim.ns_per_acquire", len(persists), bmtLevels, func(lo, hi int) {
			for _, po := range persists[lo:hi] {
				done := po.at
				for l := 0; l < bmtLevels; l++ {
					_, done = macUnit.Acquire(done)
				}
				sink += uint64(done)
			}
		})

		// Epochs of epochStores consecutive persists, as leaf labels.
		var epochs [][]bmt.Label
		var readyAt []sim.Cycle
		for lo := 0; lo+epochStores <= len(persists); lo += epochStores {
			leaves := make([]bmt.Label, epochStores)
			for i, po := range persists[lo : lo+epochStores] {
				leaves[i] = topo.LeafLabel(leafIndex(po.block))
			}
			epochs = append(epochs, leaves)
			readyAt = append(readyAt, persists[lo+epochStores-1].at)
		}
		sched := ett.NewScheduler(topo, ettSlots, ett.PolicyPaired)
		for lo := 0; lo < len(epochs); lo += chunk / epochStores {
			hi := min(lo+chunk/epochStores, len(epochs))
			t := time.Now()
			for i := lo; i < hi; i++ {
				_, done, _ := sched.ScheduleEpoch(readyAt[i], epochs[i], epochCost)
				sink += uint64(done)
			}
			samples["ett.ns_per_epoch"] = append(samples["ett.ns_per_epoch"], float64(time.Since(t).Nanoseconds())/float64(hi-lo))
		}
	}
	for name, xs := range samples {
		t := summarize(xs)
		res.Timings[name] = t
		res.Metrics[name] = t.Median
	}
	layerSink = sink
}

// layerSink keeps the replayed results live, so the compiler cannot
// drop the calls being timed.
var layerSink uint64

// replayStream materializes a benchmark's first instr instructions of
// operations, and the persisted stores among them with their issue
// cycles.
func replayStream(p trace.Profile, instr uint64) ([]trace.Op, []persistOp) {
	g := trace.NewGenerator(p)
	var ops []trace.Op
	buf := make([]trace.Op, chunk)
	for {
		n := g.Fill(buf, instr)
		if n == 0 {
			break
		}
		ops = append(ops, buf[:n]...)
	}
	var persists []persistOp
	var at sim.Cycle
	for _, op := range ops {
		at += sim.Cycle(op.Gap) + 1
		if op.Kind == trace.OpStore && !op.Stack {
			persists = append(persists, persistOp{block: op.Block, at: at})
		}
	}
	return ops, persists
}
