// Package wpq models the write pending queue in the memory
// controller: the persist gathering point of the 2-step persist (2SP)
// mechanism (§IV-A1). Entries are locked while their memory tuple is
// being gathered and their BMT root update is outstanding; a full WPQ
// back-pressures the core.
//
// The model is timestamp-based, matching internal/engine: a persist
// admitted when the queue is full is delayed until the earliest
// in-flight persist completes and frees its entry.
package wpq

import (
	"plp/internal/sim"
	"plp/internal/stats"
)

// Queue is a WPQ of fixed capacity.
type Queue struct {
	capacity int
	// done[head:] holds the completion times of the occupied entries in
	// ascending order. Completions arrive almost in order (a strict
	// scheme's root updates are in persist order), so Occupy inserts
	// from the back, usually without moving anything, and the entry
	// freed first is the one at the head. done is compacted to the
	// front of its array when the array fills, so the steady state
	// allocates nothing.
	done []sim.Cycle
	head int

	// Admitted counts persists that entered the queue; FullStalls
	// accumulates cycles spent waiting for a free entry.
	Admitted   uint64
	FullStalls sim.Cycle
	// WaitLatency distributes per-request admission waits (0 when an
	// entry was free immediately).
	WaitLatency stats.Histogram
}

// New creates a WPQ with the given entry count (Table III default 32).
func New(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{capacity: capacity, done: make([]sim.Cycle, 0, 4*capacity)}
}

// Capacity returns the entry count.
func (q *Queue) Capacity() int { return q.capacity }

// Admit requests an entry for a persist that is ready at the given
// cycle. It returns the cycle at which the entry is actually granted
// (equal to ready unless the queue is full). The caller must follow up
// with Occupy once the persist's completion time is known.
func (q *Queue) Admit(ready sim.Cycle) sim.Cycle {
	d, h := q.done, q.head
	// Drop entries that have already completed by the ready time.
	for h < len(d) && d[h] <= ready {
		h++
	}
	// A full queue frees its earliest entries until one is left for
	// this persist; the grant waits for the last of them.
	granted := ready
	if over := len(d) - h - (q.capacity - 1); over > 0 {
		h += over
		granted = max(granted, d[h-1])
	}
	if h == len(d) {
		q.done, h = d[:0], 0
	}
	q.head = h
	q.FullStalls += granted - ready
	q.WaitLatency.Add(uint64(granted - ready))
	return granted
}

// Occupy records an admitted persist occupying its entry until done
// (when the whole memory tuple has persisted and the entry unlocks).
func (q *Queue) Occupy(done sim.Cycle) {
	q.Admitted++
	d := q.done
	if len(d) == cap(d) && q.head > 0 {
		d = d[:copy(d, d[q.head:])]
		q.head = 0
	}
	d = append(d, done)
	i := len(d) - 1
	for ; i > q.head && d[i-1] > done; i-- {
		d[i] = d[i-1]
	}
	d[i] = done
	q.done = d
}

// DrainTime returns the completion time of the latest in-flight entry.
func (q *Queue) DrainTime() sim.Cycle {
	if q.head == len(q.done) {
		return 0
	}
	return q.done[len(q.done)-1]
}

// InFlight returns the number of occupied entries (as of the last
// Admit's ready time).
func (q *Queue) InFlight() int { return len(q.done) - q.head }

// InFlightAt returns the number of entries still occupied at the
// given cycle: admitted persists whose completion lies beyond it.
// This is the telemetry sampler's occupancy probe; it counts back from
// the latest completion without mutating the queue.
func (q *Queue) InFlightAt(at sim.Cycle) int {
	n := 0
	for i := len(q.done) - 1; i >= q.head && q.done[i] > at; i-- {
		n++
	}
	if n > q.capacity {
		// Epoch flushes admit a whole epoch in bulk, so the queue
		// transiently holds more completion times than entries (in the
		// real queue, earlier persists free entries for later ones).
		// Physical occupancy is still bounded by the entry count.
		n = q.capacity
	}
	return n
}
