package hier

import (
	"testing"

	"plp/internal/cache"
	"plp/internal/trace"
	"plp/internal/xrand"
)

func tiny(t *testing.T) *Hierarchy {
	t.Helper()
	mk := func(name string, lines, ways int) *cache.Cache {
		return cache.MustNew(cache.Config{
			Name: name, SizeBytes: lines * 64, LineBytes: 64,
			Ways: ways, Policy: cache.WriteBack,
		})
	}
	return MustNew(mk("l1", 4, 2), mk("l2", 16, 4), mk("llc", 64, 8))
}

func TestNewRequiresLevels(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew()
}

func TestHitDepths(t *testing.T) {
	h := tiny(t)
	if d := h.Access(1, false); d != 3 {
		t.Fatalf("cold access depth = %d, want 3 (memory)", d)
	}
	if d := h.Access(1, false); d != 0 {
		t.Fatalf("warm access depth = %d, want 0 (L1)", d)
	}
	if h.MemReads != 1 {
		t.Fatalf("mem reads = %d", h.MemReads)
	}
}

func TestL1EvictionHitsInL2(t *testing.T) {
	h := tiny(t)
	// L1: 2 sets x 2 ways. Lines 0,2,4 map to set 0; third evicts first.
	h.Access(0, false)
	h.Access(2, false)
	h.Access(4, false)
	if d := h.Access(0, false); d != 1 {
		t.Fatalf("evicted-from-L1 line hit at depth %d, want 1 (L2)", d)
	}
}

func TestDirtyCascadesToMemory(t *testing.T) {
	h := tiny(t)
	var wb []cache.Line
	h.OnMemWriteback = func(l cache.Line) { wb = append(wb, l) }
	// Write a line, then stream enough lines through to push it out of
	// every level.
	h.Access(0, true)
	for i := 1; i < 512; i++ {
		h.Access(cache.Line(i), false)
	}
	found := false
	for _, l := range wb {
		if l == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty line never surfaced as memory writeback")
	}
}

func TestCleanStreamNoWritebacks(t *testing.T) {
	h := tiny(t)
	wb := 0
	h.OnMemWriteback = func(cache.Line) { wb++ }
	for i := 0; i < 1000; i++ {
		h.Access(cache.Line(i), false)
	}
	if wb != 0 {
		t.Fatalf("clean stream produced %d writebacks", wb)
	}
}

func TestWritebackCountBoundedByWrites(t *testing.T) {
	h := tiny(t)
	wb := 0
	h.OnMemWriteback = func(cache.Line) { wb++ }
	r := xrand.New(1)
	writes := 0
	for i := 0; i < 20000; i++ {
		w := r.Bool(0.3)
		if w {
			writes++
		}
		h.Access(cache.Line(r.Intn(4096)), w)
	}
	h.FlushAll()
	if wb > writes {
		t.Fatalf("writebacks %d > writes %d", wb, writes)
	}
	if wb == 0 {
		t.Fatal("no writebacks from a thrashing write stream")
	}
}

func TestFlushAllDrainsDirty(t *testing.T) {
	h := tiny(t)
	var wb []cache.Line
	h.OnMemWriteback = func(l cache.Line) { wb = append(wb, l) }
	h.Access(7, true)
	if !h.DirtyAnywhere(7) {
		t.Fatal("written line not dirty")
	}
	h.FlushAll()
	if h.DirtyAnywhere(7) {
		t.Fatal("dirty line survived flush")
	}
	found := false
	for _, l := range wb {
		if l == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("flush lost the dirty line: %v", wb)
	}
}

func TestRewriteAfterEvictionStaysConsistent(t *testing.T) {
	// A line written, evicted to L2 (dirty), then re-written in L1,
	// must produce writebacks but never lose its dirtiness.
	h := tiny(t)
	wb := map[cache.Line]int{}
	h.OnMemWriteback = func(l cache.Line) { wb[l]++ }
	for round := 0; round < 50; round++ {
		h.Access(0, true)
		h.Access(2, false)
		h.Access(4, false) // pushes 0 out of L1 into L2
	}
	h.FlushAll()
	if wb[0] == 0 {
		t.Fatal("dirty line 0 never written back")
	}
}

func TestDefaultGeometry(t *testing.T) {
	h := Default(4096, 32)
	ls := h.Levels()
	if len(ls) != 3 {
		t.Fatalf("levels = %d", len(ls))
	}
	if ls[0].Capacity() != 1024 || ls[1].Capacity() != 8192 || ls[2].Capacity() != 65536 {
		t.Fatalf("capacities: %d %d %d", ls[0].Capacity(), ls[1].Capacity(), ls[2].Capacity())
	}
}

func BenchmarkAccess(b *testing.B) {
	h := Default(4096, 32)
	r := xrand.New(2)
	for i := 0; i < b.N; i++ {
		h.Access(cache.Line(r.Intn(1<<18)), i%4 == 0)
	}
}

// replayOps is how many ops of a profile's stream BenchmarkReplay
// replays; a power of two, so indexing by i%replayOps costs no division.
const replayOps = 1 << 20

// BenchmarkReplay sends the paper's data hierarchy what secure_WB and
// every warm-up send it: each op of a profile's stream, by block, its
// stores as writes. The first replayOps ops of the stream go through once
// untimed, then round again per op timed. gamess keeps its loads in
// the LLC-resident set; gcc and milc stream theirs through it.
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"gamess", "gcc", "milc"} {
		b.Run(name, func(b *testing.B) {
			p, _ := trace.ProfileByName(name)
			ops := make([]trace.Op, replayOps)
			trace.NewGenerator(p).Fill(ops, ^uint64(0))
			h := Default(4096, 32)
			for _, op := range ops {
				h.Access(cache.Line(op.Block), op.Kind == trace.OpStore)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := ops[i%replayOps]
				h.Access(cache.Line(op.Block), op.Kind == trace.OpStore)
			}
		})
	}
}
