package main

import (
	"plp/internal/engine"
	"plp/internal/trace"
)

// Workload sizes at -scale 1. They are chosen so that every run of
// -seconds 25 finishes many units on a 2-core host: at least two full
// rounds of each sweep (so every expected output is delivered, and
// every distinct input has repeats to take a median over) and at least
// 100 units per run (so unit_p90_ms has ten samples beyond it).
const (
	paperInstr   = 2_000_000 // per paper-sweep point
	designInstr  = 1_000_000 // per design-sweep point, measured region
	designWarmup = 500_000   // per design-sweep point, checkpointed warm-up
	serviceInstr = 250_000   // per service job point (plus a unique offset)
	layerInstr   = 1_000_000 // per benchmark in the traced layer replays

	// workers is the load on every workload: two sweep workers, two
	// closed-loop service clients. The host has two cores.
	workers = 2
	// serviceExpectedJobs is how many leading cold jobs per client the
	// committed service expectations cover.
	serviceExpectedJobs = 12
)

// paperSchemes are the twelve schemes the paper sweep and the layer
// replays run: the paper's six (Table IV) first, then the extensions
// and rivals. The list is fixed here rather than read from the engine's
// registry, so the benchmark's work cannot change under it.
var paperSchemes = []engine.Scheme{
	engine.SchemeSecureWB, engine.SchemeUnordered, engine.SchemeSP,
	engine.SchemePipeline, engine.SchemeO3, engine.SchemeCoalescing,
	engine.SchemeSGXTree, engine.SchemeColocated, engine.SchemeTriadSel,
	engine.SchemePhoenix, engine.SchemeShadow, engine.SchemeSuperMemWC,
}

// jobSchemes are the schemes of every service job: the paper's six.
var jobSchemes = paperSchemes[:6]

// designExperiments are the harness drivers the design sweep runs, in
// per-benchmark order: fig12 simulates every point of the coalescing
// default config first, so wpq and llc find theirs in the memo.
var designExperiments = []string{"fig12", "wpq", "llc"}

// rng is a splitmix64 stream. The benchmark's inputs depend only on
// the seed and this file, never on the program's own random sources.
type rng struct{ s uint64 }

// Streams keep the seed's uses independent of one another.
const (
	streamInstr uint64 = iota + 1
	streamOrder
	streamClient
)

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func benchNames() []string {
	profs := trace.Profiles()
	out := make([]string, len(profs))
	for i, p := range profs {
		out[i] = p.Name
	}
	return out
}

// permuted returns the benchmark names in the order that seed, stream
// and index select (Fisher-Yates).
func permuted(seed int64, stream, index uint64) []string {
	names := benchNames()
	r := newRNG(seed, stream<<32|index)
	for i := len(names) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// scaled returns base x scale, never below 1000 instructions.
func scaled(base uint64, scale float64) uint64 {
	n := uint64(float64(base) * scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// sweepInstructions is a sweep's per-point instruction count: base
// (scaled) plus a seed-derived offset of 0-1%.
func sweepInstructions(seed int64, base uint64, scale float64) uint64 {
	n := scaled(base, scale)
	return n + newRNG(seed, streamInstr).next()%(n/100+1)
}

// roundOrder is the benchmark order of a sweep's round-th pass.
func roundOrder(seed int64, round int) []string {
	return permuted(seed, streamOrder, uint64(round))
}

// jobSpec is one service job's inputs: a sweep of two benchmarks over
// the paper's six schemes.
type jobSpec struct {
	Benches      []string
	Instructions uint64
}

// serviceJob is client c's k-th cold job. Each client walks its own
// seed-derived benchmark order two at a time, so every benchmark recurs
// equally often whatever the seed; the instruction count is unique per
// job, so every cold job misses both the result memo and the trace
// cache of a fresh server.
func serviceJob(seed int64, scale float64, client, k int) jobSpec {
	order := permuted(seed, streamClient, uint64(client))
	n := len(order)
	base := scaled(serviceInstr, scale)
	off := newRNG(seed, streamInstr).next() % (base/200 + 1)
	return jobSpec{
		Benches:      []string{order[(2*k)%n], order[(2*k+1)%n]},
		Instructions: base + off + uint64(k*workers+client),
	}
}

// warmUpJob is client c's warm-up job, run before the clock starts: the
// benchmarks of its first cold job at an instruction count below every
// measured job's, so that it shares no memo or trace-cache entry with
// them.
func warmUpJob(seed int64, scale float64, client int) jobSpec {
	j := serviceJob(seed, scale, client, 0)
	j.Instructions -= workers
	return j
}

// schemeNames converts a scheme list for JSON specs.
func schemeNames(ss []engine.Scheme) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = string(s)
	}
	return out
}
