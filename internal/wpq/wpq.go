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

// cycleHeap is a typed binary min-heap of completion times. It
// deliberately avoids container/heap: the interface{} boxing of
// heap.Push/Pop allocates on every persist, and the WPQ sits on the
// simulator's per-store hot path (the steady-state loop is guarded to
// zero allocations).
type cycleHeap []sim.Cycle

func (h *cycleHeap) push(v sim.Cycle) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// popMin removes and returns the smallest completion time. The caller
// guarantees the heap is non-empty.
func (h *cycleHeap) popMin() sim.Cycle {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l] < s[small] {
			small = l
		}
		if r < len(s) && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return min
}

// Queue is a WPQ of fixed capacity.
type Queue struct {
	capacity int
	inflight cycleHeap // completion times of occupied entries

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
	return &Queue{capacity: capacity}
}

// Capacity returns the entry count.
func (q *Queue) Capacity() int { return q.capacity }

// Admit requests an entry for a persist that is ready at the given
// cycle. It returns the cycle at which the entry is actually granted
// (equal to ready unless the queue is full). The caller must follow up
// with Occupy once the persist's completion time is known.
func (q *Queue) Admit(ready sim.Cycle) sim.Cycle {
	// Drop entries that have already completed by the ready time.
	for len(q.inflight) > 0 && q.inflight[0] <= ready {
		q.inflight.popMin()
	}
	granted := ready
	for len(q.inflight) >= q.capacity {
		free := q.inflight.popMin()
		if free > granted {
			granted = free
		}
	}
	q.FullStalls += granted - ready
	q.WaitLatency.Add(uint64(granted - ready))
	return granted
}

// Occupy records an admitted persist occupying its entry until done
// (when the whole memory tuple has persisted and the entry unlocks).
func (q *Queue) Occupy(done sim.Cycle) {
	q.Admitted++
	q.inflight.push(done)
}

// DrainTime returns the completion time of the latest in-flight entry.
func (q *Queue) DrainTime() sim.Cycle {
	var m sim.Cycle
	for _, c := range q.inflight {
		if c > m {
			m = c
		}
	}
	return m
}

// InFlight returns the number of occupied entries (as of the last
// Admit's ready time).
func (q *Queue) InFlight() int { return len(q.inflight) }

// InFlightAt returns the number of entries still occupied at the
// given cycle: admitted persists whose completion lies beyond it.
// This is the telemetry sampler's occupancy probe; it scans the
// (capacity-bounded) heap without mutating it.
func (q *Queue) InFlightAt(at sim.Cycle) int {
	n := 0
	for _, done := range q.inflight {
		if done > at {
			n++
		}
	}
	if n > q.capacity {
		// Epoch flushes admit a whole epoch in bulk, so the heap
		// transiently holds more completion times than entries (in the
		// real queue, earlier persists free entries for later ones).
		// Physical occupancy is still bounded by the entry count.
		n = q.capacity
	}
	return n
}
