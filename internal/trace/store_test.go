package trace

import (
	"reflect"
	"sync"
	"testing"
)

// TestReplayMatchesGenerator pins the memoization foundation: a reader
// of a built recording produces the bit-identical op stream to a fresh
// generator — including past the recorded end, where the reader falls
// through to a clone of the recording's tail generator.
func TestReplayMatchesGenerator(t *testing.T) {
	p := Profiles()[0]
	const budget = 50_000
	rec := NewStore(0).Get(p, budget)
	if rec.Ops() == 0 {
		t.Fatal("empty recording")
	}

	g := NewGenerator(p)
	r := rec.Reader(p)
	// Read well past the recorded budget to exercise the tail.
	for i := 0; r.Progress() < 3*budget; i++ {
		want, got := g.Next(), r.Next()
		if want != got {
			t.Fatalf("op %d diverged: generator %+v, reader %+v", i, want, got)
		}
		if g.Progress() != r.Progress() {
			t.Fatalf("op %d: progress %d vs %d", i, g.Progress(), r.Progress())
		}
	}
	if r.tail == nil {
		t.Fatal("the reader never reached the recording's tail")
	}
}

// TestReplayFillMatchesGeneratorFill: the BatchSource fill path stops
// at the same limit and yields the same ops as Generator.Fill, across
// the recording's end, for a recording built to its budget and for one
// capped at 700 ops. At least one fill must straddle the end.
func TestReplayFillMatchesGeneratorFill(t *testing.T) {
	p := Profiles()[1%len(Profiles())]
	const budget = 20_000
	for _, rec := range []*Recording{NewStore(0).Get(p, budget), build(p, budget, 700)} {
		g := NewGenerator(p)
		r := rec.Reader(p)
		// Limit beyond the recorded region to cross the boundary
		// mid-fill.
		const limit = 2 * budget
		gbuf, rbuf := make([]Op, 193), make([]Op, 193)
		straddled := false
		for {
			before := r.pos
			gn := g.Fill(gbuf, limit)
			rn := r.Fill(rbuf, limit)
			if gn != rn {
				t.Fatalf("%d-op recording: fill counts diverged: %d vs %d", rec.Ops(), gn, rn)
			}
			if gn == 0 {
				break
			}
			if !reflect.DeepEqual(gbuf[:gn], rbuf[:rn]) {
				t.Fatalf("%d-op recording: fill contents diverged", rec.Ops())
			}
			if fromRecording := r.pos - before; fromRecording > 0 && rn > fromRecording {
				straddled = true
			}
		}
		if g.Progress() != r.Progress() {
			t.Fatalf("%d-op recording: final progress %d vs %d", rec.Ops(), g.Progress(), r.Progress())
		}
		if !straddled {
			t.Fatalf("%d-op recording: no fill crossed the recording's end", rec.Ops())
		}
	}
}

// TestGeneratorClone: a cloned generator is fully independent of the
// original.
func TestGeneratorClone(t *testing.T) {
	p := Profiles()[0]
	g := NewGenerator(p)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	c := g.clone()
	// Advance the original far ahead; the clone must be unaffected.
	ref := g.clone()
	for i := 0; i < 10_000; i++ {
		g.Next()
	}
	for i := 0; i < 2_000; i++ {
		if want, got := ref.Next(), c.Next(); want != got {
			t.Fatalf("op %d diverged after original advanced: %+v vs %+v", i, want, got)
		}
	}
}

// TestStoreSingleflight: concurrent Gets of one key record once and
// share the identical recording.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore(0)
	p := Profiles()[0]
	const workers = 16
	got := make([]*Recording, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = s.Get(p, 30_000)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatal("workers received distinct recordings for one key")
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, workers-1)
	}
	if st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("occupancy = %+v", st)
	}
}

// TestStoreEviction: the byte bound evicts least-recently-used
// entries; evicted recordings remain usable by holders.
func TestStoreEviction(t *testing.T) {
	p := Profiles()[0]
	one := NewStore(0).Get(p, 5_000).bytes()
	s := NewStore(2*one + one/2) // room for ~2 entries
	r0 := s.Get(p, 5_000)
	s.Get(p, 5_001)
	s.Get(p, 5_000) // refresh r0 so 5_001 is the LRU victim
	s.Get(p, 5_002) // overflows: evicts 5_001
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with bound %d and 3 entries: %+v", 2*one+one/2, st)
	}
	if st.Bytes > 2*one+one/2 {
		t.Fatalf("bytes %d exceed bound", st.Bytes)
	}
	// The refreshed entry survived; re-Get is a hit returning the same
	// recording.
	pre := s.Stats().Hits
	if s.Get(p, 5_000) != r0 {
		t.Fatal("refreshed entry was evicted or re-recorded")
	}
	if s.Stats().Hits != pre+1 {
		t.Fatal("expected a hit on the surviving entry")
	}
	// The evicted recording's readers still work.
	r := r0.Reader(p)
	for i := 0; i < 100; i++ {
		r.Next()
	}
}

// TestOpSize pins the packed op layout: with Block first an op is 16
// bytes, which sizes the engine's op buffer and every recording.
func TestOpSize(t *testing.T) {
	if opBytes != 16 {
		t.Fatalf("trace.Op is %d bytes, want 16", opBytes)
	}
}

// TestStoreBatchWithinBound: a recording holds at most its store's
// bound of ops, so even the entry just built keeps the store within
// its bound, whether the bound ends on a page boundary or mid-page. A
// reader of the capped recording still equals a fresh generator op for
// op, and in Progress, up to the run length: past the recording it goes
// on from the recording's tail generator. A recording the bound does
// not cap takes no more than its ops' bytes and a little overhead: its
// last page is no longer than what it holds.
func TestStoreBatchWithinBound(t *testing.T) {
	p, _ := ProfileByName("gcc")
	const instr = 2_000_000
	// The first bound ends on a page boundary, the second half way
	// through a page.
	for _, bound := range []uint64{recordingOverhead + 4<<20, 5<<20 + 512<<10} {
		s := NewStore(bound)
		rec := s.Get(p, instr)
		if got := s.Stats().Bytes; got > bound {
			t.Fatalf("a %d-instruction recording left the store at %d bytes, bound %d", instr, got, bound)
		}
		g, r := NewGenerator(p), rec.Reader(p)
		for i := 0; r.Progress() < instr; i++ {
			want, got := g.Next(), r.Next()
			if want != got || g.Progress() != r.Progress() {
				t.Fatalf("bound %d, op %d (recording holds %d): reader %+v at %d, generator %+v at %d",
					bound, i, rec.Ops(), got, r.Progress(), want, g.Progress())
			}
		}
	}
	rec := NewStore(0).Get(p, 1_500_000)
	if got, want := rec.bytes(), uint64(rec.Ops())*opBytes+4<<10; got > want {
		t.Fatalf("a %d-op recording takes %d bytes, over 16 B per op plus 4 KB (%d)", rec.Ops(), got, want)
	}
}
