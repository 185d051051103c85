package wpq

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"plp/internal/sim"
	"plp/internal/stats"
)

// cycleHeap is a typed binary min-heap of completion times: the
// structure the queue kept its entries in before it kept them sorted.
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

// refQueue is the heap-backed queue the ordered Queue replaced, kept
// as the reference it must match call for call.
type refQueue struct {
	capacity    int
	inflight    cycleHeap
	Admitted    uint64
	FullStalls  sim.Cycle
	WaitLatency stats.Histogram
}

func (q *refQueue) Admit(ready sim.Cycle) sim.Cycle {
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

func (q *refQueue) Occupy(done sim.Cycle) {
	q.Admitted++
	q.inflight.push(done)
}

func (q *refQueue) DrainTime() sim.Cycle {
	var m sim.Cycle
	for _, c := range q.inflight {
		m = max(m, c)
	}
	return m
}

func (q *refQueue) InFlightAt(at sim.Cycle) int {
	n := 0
	for _, done := range q.inflight {
		if done > at {
			n++
		}
	}
	return min(n, q.capacity)
}

// TestHeapOrdering exercises the reference heap's sift operations:
// popMin must always return the minimum of what was pushed.
func TestHeapOrdering(t *testing.T) {
	var h cycleHeap
	vals := []sim.Cycle{9, 3, 7, 1, 8, 2, 2, 100, 0, 55, 4}
	for _, v := range vals {
		h.push(v)
	}
	prev := sim.Cycle(0)
	for range vals {
		v := h.popMin()
		if v < prev {
			t.Fatalf("popMin out of order: %d after %d", v, prev)
		}
		prev = v
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// TestQueueMatchesReference drives the ordered queue and the heap
// reference with the same seeded admit/occupy sequences: a strict
// scheme's in-order completions, out-of-order completions, and epoch
// bursts of up to 32 admissions followed by their occupations, at
// capacities 1 to 64. Every grant, the counters, the wait histogram,
// the occupancy probes and the drain time must agree after every call.
func TestQueueMatchesReference(t *testing.T) {
	patterns := []struct {
		name  string
		burst int       // admissions per burst (1 = one persist at a time)
		jit   sim.Cycle // completion jitter: 0 keeps completions in order
	}{
		{"in-order", 1, 0},
		{"out-of-order", 1, 900},
		{"epoch-burst", 32, 700},
	}
	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) {
			for _, capacity := range []int{1, 2, 3, 5, 8, 16, 31, 32, 64} {
				rng := rand.New(rand.NewPCG(uint64(capacity), uint64(p.burst)))
				q, ref := New(capacity), &refQueue{capacity: capacity}
				at := sim.Cycle(0)
				grants := make([]sim.Cycle, 0, p.burst)
				for step := 0; step < 4000; step++ {
					at += sim.Cycle(rng.IntN(300))
					n := 1
					if p.burst > 1 {
						n = 1 + rng.IntN(p.burst)
					}
					grants = grants[:0]
					for range n {
						g, want := q.Admit(at), ref.Admit(at)
						if g != want {
							t.Fatalf("cap %d step %d: Admit(%d) = %d, reference %d", capacity, step, at, g, want)
						}
						grants = append(grants, g)
					}
					for _, g := range grants {
						done := g + 360
						if p.jit > 0 {
							done += sim.Cycle(rng.IntN(int(p.jit)))
						} else {
							done += sim.Cycle(step) // strictly later than every earlier completion
						}
						q.Occupy(done)
						ref.Occupy(done)
					}
					probe := at + sim.Cycle(rng.IntN(2000))
					if got, want := q.InFlightAt(probe), ref.InFlightAt(probe); got != want {
						t.Fatalf("cap %d step %d: InFlightAt(%d) = %d, reference %d", capacity, step, probe, got, want)
					}
					if got, want := q.InFlight(), len(ref.inflight); got != want {
						t.Fatalf("cap %d step %d: InFlight = %d, reference %d", capacity, step, got, want)
					}
					if got, want := q.DrainTime(), ref.DrainTime(); got != want {
						t.Fatalf("cap %d step %d: DrainTime = %d, reference %d", capacity, step, got, want)
					}
				}
				if q.Admitted != ref.Admitted || q.FullStalls != ref.FullStalls {
					t.Fatalf("cap %d: Admitted/FullStalls %d/%d, reference %d/%d", capacity, q.Admitted, q.FullStalls, ref.Admitted, ref.FullStalls)
				}
				if !reflect.DeepEqual(q.WaitLatency, ref.WaitLatency) {
					t.Fatalf("cap %d: WaitLatency differs from the reference", capacity)
				}
			}
		})
	}
}
