package ptt

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"plp/internal/sim"
)

// fixedCost returns a LevelCost with constant per-level latency.
func fixedCost(lat sim.Cycle) LevelCost {
	return func(_ int, start sim.Cycle) sim.Cycle { return start + lat }
}

func TestSequentialThroughput(t *testing.T) {
	// Baseline SP: each persist takes levels*lat, fully serialized
	// (§III: 9 levels x 80-cycle hash = 720 cycles per persist).
	tab := New(9, 64)
	var done sim.Cycle
	for i := 0; i < 3; i++ {
		done = tab.SequentialPersist(0, fixedCost(80))
	}
	if done != 3*9*80 {
		t.Fatalf("done = %d, want %d", done, 3*9*80)
	}
}

func TestPipelinedThroughput(t *testing.T) {
	// Pipelined: first persist takes levels*lat; each subsequent one
	// completes lat later (one new persist per stage time).
	tab := New(9, 64)
	_, d1 := tab.Persist(0, fixedCost(40))
	_, d2 := tab.Persist(0, fixedCost(40))
	_, d3 := tab.Persist(0, fixedCost(40))
	if d1 != 360 || d2 != 400 || d3 != 440 {
		t.Fatalf("d = %d %d %d", d1, d2, d3)
	}
}

func TestPipelineSpeedupFactor(t *testing.T) {
	// Over many persists, pipelining approaches a levels-fold speedup.
	const n, levels = 1000, 9
	seq := New(levels, 64)
	pipe := New(levels, 64)
	var dSeq, dPipe sim.Cycle
	for i := 0; i < n; i++ {
		dSeq = seq.SequentialPersist(0, fixedCost(40))
		_, dPipe = pipe.Persist(0, fixedCost(40))
	}
	speedup := float64(dSeq) / float64(dPipe)
	if speedup < 8 || speedup > 9.1 {
		t.Fatalf("speedup = %v, want ~9", speedup)
	}
}

func TestRootUpdatesStayInOrder(t *testing.T) {
	// Even when a younger persist is cheap and an older one suffers a
	// miss, root completions must be monotonically ordered.
	tab := New(4, 64)
	slow := func(lvl int, start sim.Cycle) sim.Cycle {
		if lvl == 4 {
			return start + 500 // leaf miss
		}
		return start + 40
	}
	_, d1 := tab.Persist(0, slow)
	_, d2 := tab.Persist(0, fixedCost(40))
	if d2 <= d1 {
		t.Fatalf("younger root (%d) completed before older (%d)", d2, d1)
	}
}

func TestMissStallsPipeline(t *testing.T) {
	// Fig. 4(a): a BMT cache miss for δ1 delays δ2 in the in-order
	// pipeline even at levels δ1 has not reached yet.
	tab := New(4, 64)
	_, d1Miss := tab.Persist(0, func(lvl int, start sim.Cycle) sim.Cycle {
		if lvl == 4 {
			return start + 1000
		}
		return start + 40
	})
	_, d2 := tab.Persist(0, fixedCost(40))
	// Without the stall δ2 would finish at 4*40+40 = 200; it must not.
	if d2 < d1Miss {
		t.Fatalf("δ2 (%d) overtook δ1 (%d)", d2, d1Miss)
	}
	if d2 < 1000 {
		t.Fatalf("δ2 finished at %d, unaffected by δ1's miss", d2)
	}
}

func TestCapacityBackpressure(t *testing.T) {
	// With capacity 2, the 3rd persist cannot be admitted until the
	// 1st retires.
	tab := New(2, 2)
	_, d1 := tab.Persist(0, fixedCost(100))
	tab.Persist(0, fixedCost(100))
	tab.Persist(0, fixedCost(100))
	if tab.AdmitStalls == 0 {
		t.Fatal("no admit stalls with full table")
	}
	_ = d1
}

func TestLeafStageCadence(t *testing.T) {
	// Back-to-back persists enter the leaf stage one stage-time apart:
	// the PTT admits one persist per MAC latency.
	tab := New(9, 64)
	var prev sim.Cycle
	for i := 0; i < 50; i++ {
		leafStart, _ := tab.Persist(0, fixedCost(40))
		if want := sim.Cycle(i) * 40; leafStart != want {
			t.Fatalf("persist %d leafStart = %d, want %d", i, leafStart, want)
		}
		if leafStart < prev {
			t.Fatal("leaf starts not monotone")
		}
		prev = leafStart
	}
	if tab.Persists != 50 {
		t.Fatalf("persists = %d", tab.Persists)
	}
}

func TestNoAdmitStallWhenSlow(t *testing.T) {
	// Persists arriving slower than the stage time never stall.
	tab := New(9, 64)
	for i := 0; i < 20; i++ {
		leafStart, _ := tab.Persist(sim.Cycle(i)*100, fixedCost(40))
		if leafStart != sim.Cycle(i)*100 {
			t.Fatalf("persist %d delayed to %d", i, leafStart)
		}
	}
	if tab.AdmitStalls != 0 {
		t.Fatalf("unexpected admit stalls: %d", tab.AdmitStalls)
	}
}

func TestIdlePipelineRestartsClean(t *testing.T) {
	tab := New(4, 64)
	tab.Persist(0, fixedCost(40))
	_, d := tab.Persist(10000, fixedCost(40))
	if d != 10000+4*40 {
		t.Fatalf("post-idle persist done = %d", d)
	}
}

func TestCapacityClamp(t *testing.T) {
	tab := New(4, 0)
	if tab.capacity != 1 {
		t.Fatalf("capacity = %d", tab.capacity)
	}
}

func TestLevelsAccessor(t *testing.T) {
	if New(9, 8).Levels() != 9 {
		t.Fatal("Levels accessor wrong")
	}
}

func BenchmarkPipelinedPersist(b *testing.B) {
	tab := New(9, 64)
	c := fixedCost(40)
	for i := 0; i < b.N; i++ {
		tab.Persist(0, c)
	}
}

func TestPersistLatencyHistogram(t *testing.T) {
	tab := New(9, 64)
	for i := 0; i < 5; i++ {
		tab.SequentialPersist(0, fixedCost(80))
	}
	if tab.Latency.Count() != 5 {
		t.Fatalf("latency samples = %d, want 5", tab.Latency.Count())
	}
	// Serialized persists: i-th completes at (i+1)*720 from ready 0.
	if min := tab.Latency.Percentile(1); min < 720 {
		t.Fatalf("fastest persist %d below the 720-cycle floor", min)
	}
	if tab.Latency.Max() != 5*720 {
		t.Fatalf("max latency = %d, want %d", tab.Latency.Max(), 5*720)
	}
	pipe := New(9, 64)
	pipe.Persist(0, fixedCost(80))
	if pipe.Latency.Count() != 1 || pipe.Latency.Max() != 720 {
		t.Fatalf("pipelined first persist latency = %d", pipe.Latency.Max())
	}
}

// TestGatesMatchPersist drives one table through Persist or
// SequentialPersist and a second through the gates, walking each level
// inline as the engine does, over the same seeded per-level costs (a
// MAC latency plus occasional misses and write drains) and arrival
// times, at several depths and capacities. Every leaf start, every
// level's stage time, every root time and the table's counters must
// agree.
func TestGatesMatchPersist(t *testing.T) {
	for _, pipelined := range []bool{true, false} {
		for _, shape := range []struct{ levels, capacity int }{{1, 1}, {4, 3}, {9, 64}, {12, 5}} {
			rng := rand.New(rand.NewPCG(uint64(shape.levels), uint64(shape.capacity)))
			api, gates := New(shape.levels, shape.capacity), New(shape.levels, shape.capacity)
			extra := make([]sim.Cycle, shape.levels+1) // this persist's per-level penalty
			cost := func(lvl int, start sim.Cycle) sim.Cycle { return start + 40 + extra[lvl] }
			ready := sim.Cycle(0)
			for i := 0; i < 3000; i++ {
				ready += sim.Cycle(rng.IntN(120))
				for l := range extra {
					extra[l] = 0
					if rng.IntN(8) == 0 {
						extra[l] = sim.Cycle(rng.IntN(600))
					}
				}
				var wantLeaf, wantRoot sim.Cycle
				if pipelined {
					wantLeaf, wantRoot = api.Persist(ready, cost)
				} else {
					wantRoot = api.SequentialPersist(ready, cost)
				}

				var leaf sim.Cycle
				if pipelined {
					leaf = gates.Admit(ready)
				} else {
					leaf = max(ready, gates.Stage(1))
				}
				done := leaf
				for lvl := shape.levels; lvl >= 1; lvl-- {
					start := done
					if pipelined {
						start = max(start, gates.Stage(lvl))
					}
					done = cost(lvl, start)
					gates.SetStage(lvl, done)
				}
				gates.Retire(ready, done)

				if pipelined && leaf != wantLeaf {
					t.Fatalf("pipelined=%v %+v persist %d: gate leaf start %d, Persist %d", pipelined, shape, i, leaf, wantLeaf)
				}
				if done != wantRoot {
					t.Fatalf("pipelined=%v %+v persist %d: gate root %d, want %d", pipelined, shape, i, done, wantRoot)
				}
				for lvl := 1; lvl <= shape.levels; lvl++ {
					if gates.Stage(lvl) != api.Stage(lvl) {
						t.Fatalf("pipelined=%v %+v persist %d: level %d stage %d, want %d", pipelined, shape, i, lvl, gates.Stage(lvl), api.Stage(lvl))
					}
				}
				if at := ready + 200; gates.InFlightAt(at) != api.InFlightAt(at) {
					t.Fatalf("pipelined=%v %+v persist %d: InFlightAt differs", pipelined, shape, i)
				}
			}
			if gates.Persists != api.Persists || gates.AdmitStalls != api.AdmitStalls || !reflect.DeepEqual(gates.Latency, api.Latency) {
				t.Fatalf("pipelined=%v %+v: counters differ: %d/%d/%d vs %d/%d/%d", pipelined, shape,
					gates.Persists, gates.AdmitStalls, gates.Latency.Count(), api.Persists, api.AdmitStalls, api.Latency.Count())
			}
		}
	}
}

// TestInFlightAtMatchesScan: the occupancy probe, which counts back
// from the newest retired walk, agrees with a scan of every table
// entry after each persist of pipelined and sequential walks with a
// MAC latency and occasional misses, zero-cost levels (the ideal
// metadata cache's walk), and capacities from one entry, which bound
// admission, to 64, asked at cycles before, among and after the
// completions the table holds.
func TestInFlightAtMatchesScan(t *testing.T) {
	scan := func(tab *Table, at sim.Cycle) int {
		n := 0
		for _, done := range tab.retire {
			if done > at {
				n++
			}
		}
		return n
	}
	for _, pipelined := range []bool{true, false} {
		for _, ideal := range []bool{false, true} {
			for _, capacity := range []int{1, 3, 9, 64} {
				rng := rand.New(rand.NewPCG(uint64(capacity), 7))
				tab := New(9, capacity)
				cost := func(_ int, start sim.Cycle) sim.Cycle {
					if ideal {
						return start
					}
					if rng.IntN(8) == 0 {
						return start + 40 + sim.Cycle(rng.IntN(600))
					}
					return start + 40
				}
				ready, busy := sim.Cycle(0), 0
				for i := 0; i < 2000; i++ {
					ready += sim.Cycle(rng.IntN(150))
					if pipelined {
						tab.Persist(ready, cost)
					} else {
						tab.SequentialPersist(ready, cost)
					}
					for _, at := range []sim.Cycle{0, ready, ready + sim.Cycle(rng.IntN(400)), ready + sim.Cycle(rng.IntN(5000)), tab.Stage(1), tab.Stage(1) - 1} {
						got, want := tab.InFlightAt(at), scan(tab, at)
						if got != want {
							t.Fatalf("pipelined=%v ideal=%v capacity %d persist %d: InFlightAt(%d) = %d, scan %d",
								pipelined, ideal, capacity, i, at, got, want)
						}
						if got > 0 {
							busy++
						}
					}
				}
				if !ideal && busy == 0 {
					t.Fatalf("pipelined=%v capacity %d: no persist was ever in flight", pipelined, capacity)
				}
			}
		}
	}
}
