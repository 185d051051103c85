// Package sim provides a minimal discrete-event simulation kernel: a
// cycle-granularity clock and a future event list. All timing models in
// this repository (NVM channels, MAC units, persist engines) are built
// on it.
//
// Events scheduled for the same cycle run in FIFO order of scheduling,
// which makes component interactions deterministic.
package sim

import "container/heap"

// Cycle is a point in simulated time, in processor cycles.
type Cycle uint64

// Event is a deferred action.
type Event func()

type item struct {
	at  Cycle
	seq uint64
	fn  Event
}

type eventHeap []item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now    Cycle
	seq    uint64
	events eventHeap
}

// NewEngine returns an engine at cycle 0 with an empty event list.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Schedule runs fn after delay cycles (delay 0 means later this cycle,
// after already-pending same-cycle events).
func (e *Engine) Schedule(delay Cycle, fn Event) {
	e.seq++
	heap.Push(&e.events, item{at: e.now + delay, seq: e.seq, fn: fn})
}

// At runs fn at the given absolute cycle; if at is in the past it runs
// at the current cycle.
func (e *Engine) At(at Cycle, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.events, item{at: at, seq: e.seq, fn: fn})
}

// Pending reports whether any events remain.
func (e *Engine) Pending() bool { return len(e.events) > 0 }

// Step runs the earliest event, advancing the clock to its cycle.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := heap.Pop(&e.events).(item)
	e.now = it.at
	it.fn()
	return true
}

// Run executes events until none remain or the clock passes limit
// (limit 0 means no limit). It returns the final cycle.
func (e *Engine) Run(limit Cycle) Cycle {
	for len(e.events) > 0 {
		if limit != 0 && e.events[0].at > limit {
			e.now = limit
			break
		}
		e.Step()
	}
	return e.now
}

// RunUntil executes events until pred() is true or no events remain.
func (e *Engine) RunUntil(pred func() bool) Cycle {
	for !pred() && e.Step() {
	}
	return e.now
}
