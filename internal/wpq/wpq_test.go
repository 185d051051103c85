package wpq

import (
	"math/rand/v2"
	"testing"

	"plp/internal/sim"
)

func TestAdmitWhenEmpty(t *testing.T) {
	q := New(4)
	if got := q.Admit(100); got != 100 {
		t.Fatalf("granted = %d", got)
	}
}

func TestFullQueueDelays(t *testing.T) {
	q := New(2)
	q.Admit(0)
	q.Occupy(500)
	q.Admit(0)
	q.Occupy(700)
	// Queue full; third persist ready at 0 must wait for earliest (500).
	if got := q.Admit(0); got != 500 {
		t.Fatalf("granted = %d, want 500", got)
	}
	q.Occupy(900)
	// Fourth waits for next earliest (700).
	if got := q.Admit(0); got != 700 {
		t.Fatalf("granted = %d, want 700", got)
	}
	if q.FullStalls != 500+700 {
		t.Fatalf("stalls = %d", q.FullStalls)
	}
}

func TestCompletedEntriesFree(t *testing.T) {
	q := New(1)
	q.Admit(0)
	q.Occupy(100)
	// Ready after the entry completed: no delay.
	if got := q.Admit(200); got != 200 {
		t.Fatalf("granted = %d", got)
	}
}

func TestOutOfOrderCompletionFreesEarliest(t *testing.T) {
	q := New(2)
	q.Admit(0)
	q.Occupy(900) // slow persist
	q.Admit(0)
	q.Occupy(300) // fast persist (OOO completion)
	if got := q.Admit(0); got != 300 {
		t.Fatalf("granted = %d, want 300 (earliest completion)", got)
	}
}

func TestDrainTime(t *testing.T) {
	q := New(4)
	q.Admit(0)
	q.Occupy(500)
	q.Admit(0)
	q.Occupy(300)
	if q.DrainTime() != 500 {
		t.Fatalf("drain = %d", q.DrainTime())
	}
}

func TestCapacityClamped(t *testing.T) {
	q := New(0)
	if q.Capacity() != 1 {
		t.Fatalf("capacity = %d", q.Capacity())
	}
}

func TestStatsCount(t *testing.T) {
	q := New(8)
	for i := 0; i < 5; i++ {
		g := q.Admit(sim.Cycle(i))
		q.Occupy(g + 10)
	}
	if q.Admitted != 5 {
		t.Fatalf("admitted = %d", q.Admitted)
	}
}

func TestSerializationWithCapacityOne(t *testing.T) {
	// Capacity 1 turns the WPQ into a fully serial persist point.
	q := New(1)
	var last sim.Cycle
	for i := 0; i < 10; i++ {
		g := q.Admit(0)
		if g < last {
			t.Fatalf("grant went backwards: %d < %d", g, last)
		}
		last = g + 100
		q.Occupy(last)
	}
	if last != 1000 {
		t.Fatalf("final completion = %d, want 1000", last)
	}
}

func TestWaitLatencyHistogram(t *testing.T) {
	q := New(2)
	q.Admit(0)
	q.Occupy(500)
	q.Admit(0)
	q.Occupy(700)
	q.Admit(0) // waits until 500
	if q.WaitLatency.Count() != 3 {
		t.Fatalf("wait samples = %d, want 3", q.WaitLatency.Count())
	}
	if q.WaitLatency.Max() != 500 {
		t.Fatalf("max wait = %d, want 500", q.WaitLatency.Max())
	}
	// The two uncontended admissions recorded zero waits.
	if p := q.WaitLatency.Percentile(50); p != 0 {
		t.Fatalf("p50 wait = %d, want 0", p)
	}
}

// TestQueueSteadyStateAllocs guards the ordered queue: once its array
// has grown, Admit/Occupy cycles allocate nothing (compaction reuses
// the array, and container/heap's interface boxing, which once
// allocated on every push and pop, is gone).
func TestQueueSteadyStateAllocs(t *testing.T) {
	q := New(32)
	at := sim.Cycle(0)
	for i := 0; i < 64; i++ { // fill the array past capacity once
		g := q.Admit(at)
		q.Occupy(g + 100)
		at += 3
	}
	allocs := testing.AllocsPerRun(1000, func() {
		g := q.Admit(at)
		q.Occupy(g + 100)
		at += 3
	})
	if allocs != 0 {
		t.Fatalf("Admit/Occupy allocated %.2f objects/op in steady state", allocs)
	}
}

// BenchmarkAdmitOccupy times one Admit/Occupy pair in the two patterns
// the engine drives: a strict scheme's persist stream, whose
// completions arrive in order, and epoch flushes that admit 32
// persists and then occupy them with out-of-order completions.
func BenchmarkAdmitOccupy(b *testing.B) {
	b.Run("strict", func(b *testing.B) {
		q := New(32)
		at := sim.Cycle(0)
		for i := 0; i < b.N; i++ {
			q.Occupy(q.Admit(at) + 360)
			at += 7
		}
	})
	b.Run("epoch", func(b *testing.B) {
		q := New(32)
		rng := rand.New(rand.NewPCG(1, 2))
		var lat [32]sim.Cycle
		for i := range lat {
			lat[i] = 360 + sim.Cycle(rng.IntN(400))
		}
		at := sim.Cycle(0)
		for i := 0; i < b.N; i += len(lat) {
			grant := at
			for range lat {
				grant = max(grant, q.Admit(at))
			}
			for _, l := range lat {
				q.Occupy(grant + l)
			}
			at += 250
		}
	})
}
