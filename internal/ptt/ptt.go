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
// Persist, SequentialPersist and the Reference take one; the engine
// walks the table's gates itself with its node update inline.
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

// The walk's per-level gates. A walk of one persist is a loop over
// them: Admit (pipelined) or the root's Stage (sequential) gives its
// leaf start; each level, from the leaf (level Levels) to the root
// (level 1), starts no earlier than that level's Stage and records its
// completion with SetStage; Retire closes the walk. Persist and
// SequentialPersist are that loop over a LevelCost; the engine runs it
// inline with its own node update.

// Admit is a pipelined walk's admission gate: it returns when a
// persist ready at the given cycle may enter the leaf stage, once a
// table entry is free and the previous persist has vacated the leaf
// stage (one persist per BMT level, Fig. 6), and adds the wait to
// AdmitStalls.
func (t *Table) Admit(ready sim.Cycle) sim.Cycle {
	start := max(ready, t.retire[t.head], t.stageDone[t.levels-1])
	t.AdmitStalls += start - ready
	return start
}

// Stage returns level lvl's gate (1 = root): when the youngest
// persist so far completed its update of that level. A pipelined
// walk's update of the level starts no earlier; a sequential walk
// starts its leaf no earlier than the root's.
func (t *Table) Stage(lvl int) sim.Cycle { return t.stageDone[lvl-1] }

// SetStage records that the walking persist completed its update of
// level lvl at done.
func (t *Table) SetStage(lvl int, done sim.Cycle) { t.stageDone[lvl-1] = done }

// Retire closes the walk of a persist that was ready at the given
// cycle and completed its root update at rootDone: it counts the
// persist, holds its table entry until rootDone (the capacity limit
// and InFlightAt read these) and records its in-table latency.
func (t *Table) Retire(ready, rootDone sim.Cycle) {
	t.Persists++
	t.retire[t.head] = rootDone
	if t.head++; t.head == t.capacity {
		t.head = 0
	}
	t.Latency.Add(uint64(rootDone - ready))
}

// Persist schedules one persist's full leaf-to-root update pipeline,
// ready at the given cycle. It returns when the persist entered the
// pipeline's leaf stage (under strict persistency the store occupies
// the front of the persist order until then, so the core observes
// leafStart as the store's stall point) and when its root update
// completes (the point at which the WPQ entry may be marked
// persisted).
func (t *Table) Persist(ready sim.Cycle, cost LevelCost) (leafStart, rootDone sim.Cycle) {
	leafStart = t.Admit(ready)
	done := leafStart
	for lvl := t.levels; lvl >= 1; lvl-- {
		// This persist finished the level below at done; an older
		// persist may still be updating this level.
		done = cost(lvl, max(done, t.Stage(lvl)))
		t.SetStage(lvl, done)
	}
	t.Retire(ready, done)
	return leafStart, done
}

// InFlightAt returns the number of table entries still occupied at
// the given cycle: scheduled persists whose root update completes
// beyond it, capped by the table capacity. This is the telemetry
// sampler's occupancy probe, taken after every persist of a sampled
// run.
//
// Root updates complete in persist order under both walk kinds (a
// pipelined walk starts each level no earlier than the previous
// persist finished it, a sequential one its leaf no earlier than the
// previous root, and a level's update never ends before it starts), so
// the ring holds non-decreasing completion times from its oldest entry
// to its newest; the ones beyond at are the newest few, counted back
// from the newest.
func (t *Table) InFlightAt(at sim.Cycle) int {
	n, i := 0, t.head
	for n < t.capacity {
		if i == 0 {
			i = t.capacity
		}
		if i--; t.retire[i] <= at {
			break
		}
		n++
	}
	return n
}

// SequentialPersist schedules one persist under the *baseline* SP
// mechanism (§IV-A1): the leaf-to-root update runs only after the
// previous persist's root update completed — no pipelining. It shares
// the level walk and its gates; the root's Stage gates the leaf. The
// walk is retired into the table too, so InFlightAt reports occupancy
// for sequential schemes as well; Persist never shares a table with
// SequentialPersist, so its admission gate is unaffected.
func (t *Table) SequentialPersist(ready sim.Cycle, cost LevelCost) (rootDone sim.Cycle) {
	done := max(ready, t.Stage(1)) // previous root update
	for lvl := t.levels; lvl >= 1; lvl-- {
		done = cost(lvl, done)
		t.SetStage(lvl, done)
	}
	t.Retire(ready, done)
	return done
}
