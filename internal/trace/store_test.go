package trace

import (
	"reflect"
	"sync"
	"testing"
)

// TestReplayMatchesGenerator pins the memoization foundation: a
// batch replay produces the bit-identical op stream to a fresh
// generator — including past the materialized end, where the replay
// falls through to a cloned tail generator.
func TestReplayMatchesGenerator(t *testing.T) {
	p := Profiles()[0]
	const budget = 50_000
	b := MaterializeBatch(p, budget)
	if b.Ops() == 0 || b.Key() != (Key{Bench: p.Name, Seed: p.Seed, Instructions: budget}) {
		t.Fatalf("bad batch: ops=%d key=%+v", b.Ops(), b.Key())
	}

	g := NewGenerator(p)
	r := b.Replay()
	// Read well past the materialized budget to exercise the tail.
	for i := 0; r.Progress() < 3*budget; i++ {
		want, got := g.Next(), r.Next()
		if want != got {
			t.Fatalf("op %d diverged: generator %+v, replay %+v", i, want, got)
		}
		if g.Progress() != r.Progress() {
			t.Fatalf("op %d: progress %d vs %d", i, g.Progress(), r.Progress())
		}
	}
}

// TestReplayFillMatchesGeneratorFill: the BatchSource fill path stops
// at the same limit and yields the same ops as Generator.Fill, across
// the batch end, for a batch materialized to its budget and for one
// capped at 700 ops. At least one fill must straddle the end.
func TestReplayFillMatchesGeneratorFill(t *testing.T) {
	p := Profiles()[1%len(Profiles())]
	const budget = 20_000
	for _, b := range []*Batch{MaterializeBatch(p, budget), materialize(p, budget, 700)} {
		g := NewGenerator(p)
		r := b.Replay()
		// Limit beyond the materialized region to cross the boundary
		// mid-fill.
		const limit = 2 * budget
		gbuf, rbuf := make([]Op, 193), make([]Op, 193)
		straddled := false
		for {
			before := r.pos
			gn := g.Fill(gbuf, limit)
			rn := r.Fill(rbuf, limit)
			if gn != rn {
				t.Fatalf("%d-op batch: fill counts diverged: %d vs %d", b.Ops(), gn, rn)
			}
			if gn == 0 {
				break
			}
			if !reflect.DeepEqual(gbuf[:gn], rbuf[:rn]) {
				t.Fatalf("%d-op batch: fill contents diverged", b.Ops())
			}
			if fromBatch := r.pos - before; fromBatch > 0 && rn > fromBatch {
				straddled = true
			}
		}
		if g.Progress() != r.Progress() {
			t.Fatalf("%d-op batch: final progress %d vs %d", b.Ops(), g.Progress(), r.Progress())
		}
		if !straddled {
			t.Fatalf("%d-op batch: no fill crossed the batch end", b.Ops())
		}
	}
}

// TestReplayCloneMidStream: a clone taken mid-replay (before or after
// the tail handoff) continues identically to its original.
func TestReplayCloneMidStream(t *testing.T) {
	p := Profiles()[0]
	const budget = 10_000
	b := MaterializeBatch(p, budget)
	for _, warm := range []uint64{budget / 2, 2 * budget} { // inside batch; inside tail
		r := b.Replay()
		for r.Progress() < warm {
			r.Next()
		}
		c := r.CloneSource()
		for i := 0; i < 5_000; i++ {
			want, got := r.Next(), c.Next()
			if want != got {
				t.Fatalf("warm=%d op %d diverged: %+v vs %+v", warm, i, want, got)
			}
		}
	}
}

// TestGeneratorCloneSource: a cloned generator is fully independent of
// the original.
func TestGeneratorCloneSource(t *testing.T) {
	p := Profiles()[0]
	g := NewGenerator(p)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	c := g.CloneSource()
	// Advance the original far ahead; the clone must be unaffected.
	ref := g.CloneSource()
	for i := 0; i < 10_000; i++ {
		g.Next()
	}
	for i := 0; i < 2_000; i++ {
		if want, got := ref.Next(), c.Next(); want != got {
			t.Fatalf("op %d diverged after original advanced: %+v vs %+v", i, want, got)
		}
	}
}

// TestStoreSingleflight: concurrent Gets of one key materialize once
// and share the identical batch.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore(0)
	p := Profiles()[0]
	const workers = 16
	got := make([]*Batch, workers)
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
			t.Fatal("workers received distinct batches for one key")
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, workers-1)
	}
	if st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("occupancy = %+v", st)
	}
	if hr := st.HitRate(); hr <= 0.9 {
		t.Fatalf("hit rate = %v", hr)
	}
}

// TestStoreEviction: the byte bound evicts least-recently-used
// entries; evicted batches remain usable by holders.
func TestStoreEviction(t *testing.T) {
	p := Profiles()[0]
	one := MaterializeBatch(p, 5_000).Bytes()
	s := NewStore(2*one + one/2) // room for ~2 entries
	b0 := s.Get(p, 5_000)
	s.Get(p, 5_001)
	s.Get(p, 5_000) // refresh b0 so 5_001 is the LRU victim
	s.Get(p, 5_002) // overflows: evicts 5_001
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with bound %d and 3 entries: %+v", 2*one+one/2, st)
	}
	if st.Bytes > 2*one+one/2 {
		t.Fatalf("bytes %d exceed bound", st.Bytes)
	}
	// The refreshed entry survived; re-Get is a hit returning the same
	// batch.
	pre := s.Stats().Hits
	if s.Get(p, 5_000) != b0 {
		t.Fatal("refreshed entry was evicted or re-materialized")
	}
	if s.Stats().Hits != pre+1 {
		t.Fatal("expected a hit on the surviving entry")
	}
	// The evicted batch's replays still work.
	r := b0.Replay()
	for i := 0; i < 100; i++ {
		r.Next()
	}
}

// TestOpSize pins the packed op layout: with Block first an op is 16
// bytes, which sizes the engine's op buffer and every stored batch.
func TestOpSize(t *testing.T) {
	if opBytes != 16 {
		t.Fatalf("trace.Op is %d bytes, want 16", opBytes)
	}
}

// TestStoreBatchWithinBound: a batch holds at most its store's bound of
// ops, so even the entry just built keeps the store within its bound.
// The replay of the capped batch still equals a fresh generator op for
// op, and in Progress, up to the run length: past the batch it goes on
// from the batch's tail generator.
func TestStoreBatchWithinBound(t *testing.T) {
	p, _ := ProfileByName("gcc")
	const bound, instr = 4 << 20, 2_000_000
	s := NewStore(bound)
	b := s.Get(p, instr)
	if got := s.Stats().Bytes; got > bound {
		t.Fatalf("a %d-instruction batch left the store at %d bytes, bound %d", instr, got, bound)
	}
	g, r := NewGenerator(p), b.Replay()
	for i := 0; r.Progress() < instr; i++ {
		want, got := g.Next(), r.Next()
		if want != got || g.Progress() != r.Progress() {
			t.Fatalf("op %d (batch holds %d): replay %+v at %d, generator %+v at %d",
				i, b.Ops(), got, r.Progress(), want, g.Progress())
		}
	}
}
