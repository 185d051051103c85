package engine

import (
	"plp/internal/bmt"
	"plp/internal/sim"
	"plp/internal/trace"
)

// Arena holds the large reusable buffers of a run's hot path: the
// write-merge table (one cycle per data, counter and MAC line, ~77MB
// for the synthetic address map), the epoch-membership generation set, the precomputed BMT
// path table, and the trace batch buffer. Sweeps that execute many
// runs back to back hand the same arena to each Config so the big
// allocations happen once per worker instead of once per run; results
// are bit-identical with or without one.
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
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

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

// opBuf returns a trace batch buffer of length n.
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
