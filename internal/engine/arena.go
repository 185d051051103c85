package engine

import (
	"plp/internal/addr"
	"plp/internal/bmt"
	"plp/internal/cache"
	"plp/internal/hier"
	"plp/internal/sim"
	"plp/internal/trace"
)

// Arena holds what a run can reuse from the run before it: the
// write-merge table (one cycle per data, counter and MAC line, ~77MB
// for the synthetic address map), the epoch-membership generation
// set, the precomputed BMT path table, the op buffer, the machine's
// caches (three metadata caches and, once a run has read one, the data
// hierarchy, 1.4MB together at the defaults), a growing recording of
// the last profile's op stream, and a recording of where one sharing
// run's metadata-cache lookups over that stream missed (see
// lookups.go). The op-stream recording's pages move to the next
// profile, so no Checkpoint may pin a position in it: checkpoints keep
// a reader of a trace.Store's built recording instead. Sweeps that execute many runs back to back hand
// the same arena to each Config so the big allocations happen once per
// worker instead of once per run, Run generates a profile's stream
// once for all the runs that read it from one arena, and the runs of
// the schemes whose lookups the stream fixes search the metadata
// caches once for all of them; results are bit-identical with or
// without one.
//
// An arena is not safe for concurrent use: at most one run may use it
// at a time. The zero value is ready to use.
type Arena struct {
	lastWrite []sim.Cycle
	dirty     []uint64 // lines written in lastWrite since the last cycles() call
	epochGen  []uint32
	epochCur  uint32
	ops       []trace.Op

	paths       *bmt.PathTable
	pathsLevels int
	pathsN      uint64

	ctr, mac, bmt *cache.Cache
	data          *hier.Hierarchy

	rec  trace.Recording
	look lookupRecording
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// Holds reports whether the arena records p's op stream, so that a Run
// of p on it replays the stream instead of generating it.
func (a *Arena) Holds(p trace.Profile) bool { return a.rec.Holds(p) }

// caches returns the run's three metadata caches and data hierarchy,
// empty: the arena's own, reset, where their geometry matches cfg's,
// else new ones that the arena keeps. A run without a data hierarchy
// (see Config.readsData) gets nil and leaves the arena's alone.
func (a *Arena) caches(cfg Config) (ctr, mac, bmt *cache.Cache, data *hier.Hierarchy) {
	a.ctr = reuseMDC(a.ctr, "ctr", cfg.CtrCacheKB, cfg.MDCWays)
	a.mac = reuseMDC(a.mac, "mac", cfg.MACCacheKB, cfg.MDCWays)
	a.bmt = reuseMDC(a.bmt, "bmt", cfg.BMTCacheKB, cfg.MDCWays)
	if !cfg.readsData() {
		return a.ctr, a.mac, a.bmt, nil
	}
	if a.data != nil {
		if lines, ways := a.data.LLC(); lines == cfg.LLCKB*kb/addr.BlockBytes && ways == cfg.LLCWays {
			a.data.Reset()
			return a.ctr, a.mac, a.bmt, a.data
		}
	}
	a.data = hier.Default(cfg.LLCKB, cfg.LLCWays)
	return a.ctr, a.mac, a.bmt, a.data
}

// reuseMDC returns c reset when it fits the geometry, else a new
// metadata cache.
func reuseMDC(c *cache.Cache, name string, kbs, ways int) *cache.Cache {
	if c != nil && c.Capacity() == kbs*kb/addr.BlockBytes && c.Ways() == ways {
		c.Reset()
		return c
	}
	return newMDC(name, kbs, ways)
}

// cycles returns a zeroed cycle buffer of length n, reusing the
// arena's backing array when it is large enough. Reuse zeroes only
// the entries the previous run dirtied (mergedWrite records them):
// a run touches tens of thousands of distinct lines in a table of
// ~10 million, so a full clear would cost more than the run itself.
func (a *Arena) cycles(n uint64) []sim.Cycle {
	if uint64(cap(a.lastWrite)) < n {
		a.lastWrite = make([]sim.Cycle, n)
		a.dirty = a.dirty[:0]
		return a.lastWrite
	}
	full := a.lastWrite[:cap(a.lastWrite)]
	for _, line := range a.dirty {
		full[line] = 0
	}
	a.dirty = a.dirty[:0]
	return a.lastWrite[:n]
}

// gens returns the epoch generation-stamp buffer of length n and the
// current generation counter. The buffer is NOT cleared on reuse: the
// counter is monotonic across runs sharing the arena, so stale stamps
// from earlier runs can never equal a current generation (0 is the
// never-stamped sentinel; the counter is bumped past it before use).
func (a *Arena) gens(n uint64) ([]uint32, uint32) {
	if uint64(cap(a.epochGen)) < n {
		a.epochGen = make([]uint32, n)
		a.epochCur = 0
		return a.epochGen, 0
	}
	old := len(a.epochGen)
	a.epochGen = a.epochGen[:n]
	for i := old; i < len(a.epochGen); i++ {
		a.epochGen[i] = 0
	}
	return a.epochGen, a.epochCur
}

// opBuf returns an op buffer of length n.
func (a *Arena) opBuf(n int) []trace.Op {
	if cap(a.ops) < n {
		a.ops = make([]trace.Op, n)
	}
	return a.ops[:n]
}

// pathTable returns a PathTable over the first n leaves of t, reusing
// the previous table when the topology shape matches (the engine's
// trees are always arity 8, so levels+n determine the labels).
func (a *Arena) pathTable(t *bmt.Topology, n uint64) *bmt.PathTable {
	if a.paths != nil && a.pathsLevels == t.Levels() && a.pathsN == n {
		return a.paths
	}
	a.paths = bmt.NewPathTable(t, n)
	a.pathsLevels = t.Levels()
	a.pathsN = n
	return a.paths
}
