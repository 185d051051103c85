// Package ptt models the persist tracking table (§V-A): the structure
// that enforces in-order *pipelined* BMT updates under strict
// persistency. Each persist walks the tree from leaf level
// (level == Levels) to the root (level 1); the PTT's scheduler lets a
// younger persist update a BMT level only after the older persist has
// completed its update of that same level, so common ancestors —
// including the root — are always updated in persist order, preserving
// Invariant 2 while overlapping up to Levels persists.
//
// The model is timestamp-based: per level, the completion time of the
// most recent (youngest so far) update forms the gate the next persist
// must respect. A capacity limit models the finite table (64 entries
// in Table III): admission waits until the persist `capacity` ago has
// retired.
package ptt

import (
	"plp/internal/sim"
	"plp/internal/stats"
)

// LevelCost computes the completion time of one node update that may
// begin at start, for the node at the given 1-based level (1 = root).
// The engine supplies MAC-unit occupancy and BMT-cache miss penalties
// through this callback.
type LevelCost func(level int, start sim.Cycle) (done sim.Cycle)

// Table is the PTT scheduler.
type Table struct {
	levels   int
	capacity int

	// stageDone[l-1] is when the youngest persist so far completed its
	// update of level l; the next persist's level-l update must start
	// at or after this (in-order per level).
	stageDone []sim.Cycle

	// retire is a ring of root-update completion times for capacity
	// accounting.
	retire []sim.Cycle
	head   int

	// Persists counts scheduled persists; AdmitStalls accumulates
	// cycles waiting for a free PTT entry.
	Persists    uint64
	AdmitStalls sim.Cycle
	// Latency distributes each persist's in-table latency: from ready
	// (update path may begin) to root-update completion.
	Latency stats.Histogram
}

// New creates a PTT for a tree with the given number of levels and
// the given entry capacity.
func New(levels, capacity int) *Table {
	if capacity < 1 {
		capacity = 1
	}
	return &Table{
		levels:    levels,
		capacity:  capacity,
		stageDone: make([]sim.Cycle, levels),
		retire:    make([]sim.Cycle, capacity),
	}
}

// Levels returns the tree depth the table is configured for.
func (t *Table) Levels() int { return t.levels }

// Persist schedules one persist's full leaf-to-root update pipeline,
// ready at the given cycle. It returns when the persist entered the
// pipeline's leaf stage (under strict persistency the store occupies
// the front of the persist order until then, so the core observes
// leafStart as the store's stall point) and when its root update
// completes (the point at which the WPQ entry may be marked
// persisted).
func (t *Table) Persist(ready sim.Cycle, cost LevelCost) (leafStart, rootDone sim.Cycle) {
	// Admission: wait for a free entry.
	start := ready
	if free := t.retire[t.head]; free > start {
		start = free
	}
	// The leaf stage must also have been vacated by the previous
	// persist (one persist per BMT level, Fig. 6).
	if g := t.stageDone[t.levels-1]; g > start {
		start = g
	}
	t.AdmitStalls += start - ready
	t.Persists++

	done := start
	for lvl := t.levels; lvl >= 1; lvl-- {
		s := done // this persist finished the level below at `done`
		if g := t.stageDone[lvl-1]; g > s {
			s = g // older persist still updating this level
		}
		done = cost(lvl, s)
		t.stageDone[lvl-1] = done
	}
	t.retire[t.head] = done
	t.head = (t.head + 1) % t.capacity
	t.Latency.Add(uint64(done - ready))
	return start, done
}

// InFlightAt returns the number of table entries still occupied at
// the given cycle: scheduled persists whose root update completes
// beyond it, capped by the table capacity. This is the telemetry
// sampler's occupancy probe.
func (t *Table) InFlightAt(at sim.Cycle) int {
	n := 0
	for _, done := range t.retire {
		if done > at {
			n++
		}
	}
	return n
}

// SequentialPersist schedules one persist under the *baseline* SP
// mechanism (§IV-A1): the leaf-to-root update runs only after the
// previous persist's root update completed — no pipelining. It is
// provided here because it shares the level-walk; the gate is the
// root's stageDone, applied at the leaf.
func (t *Table) SequentialPersist(ready sim.Cycle, cost LevelCost) (rootDone sim.Cycle) {
	start := ready
	if g := t.stageDone[0]; g > start { // previous root update
		start = g
	}
	t.Persists++
	done := start
	for lvl := t.levels; lvl >= 1; lvl-- {
		done = cost(lvl, done)
		t.stageDone[lvl-1] = done
	}
	// Record the walk in the retire ring too, so InFlightAt reports
	// occupancy for sequential schemes as well. Persist never shares a
	// table with SequentialPersist, so its admission gate is unaffected.
	t.retire[t.head] = done
	t.head = (t.head + 1) % t.capacity
	t.Latency.Add(uint64(done - ready))
	return done
}
