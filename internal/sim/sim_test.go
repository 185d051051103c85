package sim

import "testing"

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle, FIFO
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("final cycle = %d, want 10", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events ran out of order: %v at %d", v, i)
		}
	}
}

func TestZeroDelayRunsAfterPending(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(0, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 3) })
	})
	e.Schedule(0, func() { order = append(order, 2) })
	e.Run(0)
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(100, func() { ran = true })
	e.Run(50)
	if ran {
		t.Fatal("event past limit ran")
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
	if !e.Pending() {
		t.Fatal("event should still be pending")
	}
	e.Run(0)
	if !ran || e.Now() != 100 {
		t.Fatalf("ran=%v now=%d", ran, e.Now())
	}
}

func TestAtPastClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		e.At(5, func() {}) // in the past; must run at now
	})
	e.Run(0)
	if e.Now() != 10 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.RunUntil(func() bool { return count >= 5 })
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestServerSerial(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 40, 40) // non-pipelined
	var finishes []Cycle
	for i := 0; i < 3; i++ {
		s.Submit(func() { finishes = append(finishes, e.Now()) })
	}
	e.Run(0)
	want := []Cycle{40, 80, 120}
	for i, w := range want {
		if finishes[i] != w {
			t.Fatalf("finish[%d] = %d, want %d", i, finishes[i], w)
		}
	}
}

func TestServerPipelined(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 40, 1) // fully pipelined
	var finishes []Cycle
	for i := 0; i < 3; i++ {
		s.Submit(func() { finishes = append(finishes, e.Now()) })
	}
	e.Run(0)
	want := []Cycle{40, 41, 42}
	for i, w := range want {
		if finishes[i] != w {
			t.Fatalf("finish[%d] = %d, want %d", i, finishes[i], w)
		}
	}
}

func TestServerIdealZeroLatency(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 0, 0)
	done := 0
	for i := 0; i < 5; i++ {
		s.Submit(func() {
			if e.Now() != 0 {
				t.Fatalf("ideal server completed at cycle %d", e.Now())
			}
			done++
		})
	}
	e.Run(0)
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
}

func TestServerQueueDelay(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 10, 10)
	if s.QueueDelay() != 0 {
		t.Fatal("idle server should have zero queue delay")
	}
	s.Submit(func() {})
	if s.QueueDelay() != 10 {
		t.Fatalf("queue delay = %d, want 10", s.QueueDelay())
	}
	s.Submit(func() {})
	if s.QueueDelay() != 20 {
		t.Fatalf("queue delay = %d, want 20", s.QueueDelay())
	}
}

func TestServerStats(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 5, 5)
	for i := 0; i < 4; i++ {
		s.Submit(func() {})
	}
	e.Run(0)
	if s.Submitted != 4 || s.Completed != 4 {
		t.Fatalf("submitted=%d completed=%d", s.Submitted, s.Completed)
	}
	if s.BusyTime != 20 {
		t.Fatalf("busy = %d, want 20", s.BusyTime)
	}
}

func TestServerSubmitDuringRun(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 10, 10)
	var second Cycle
	s.Submit(func() {
		s.Submit(func() { second = e.Now() })
	})
	e.Run(0)
	if second != 20 {
		t.Fatalf("second finish = %d, want 20", second)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i%64), func() {})
		if i%1024 == 1023 {
			e.Run(0)
		}
	}
	e.Run(0)
}

func TestServerLatencyAccessorAndClamp(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 40, 0) // initiation clamped to 1 for latency > 0
	if s.Latency() != 40 {
		t.Fatalf("Latency = %d", s.Latency())
	}
	var d1, d2 Cycle
	s.Submit(func() { d1 = e.Now() })
	s.Submit(func() { d2 = e.Now() })
	e.Run(0)
	if d1 != 40 || d2 != 41 {
		t.Fatalf("clamped initiation: d1=%d d2=%d", d1, d2)
	}
}
