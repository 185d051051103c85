package hier

import (
	"slices"
	"testing"

	"plp/internal/cache"
	"plp/internal/trace"
	"plp/internal/xrand"
)

func tiny(t *testing.T) *Hierarchy {
	t.Helper()
	return MustNew(wbLevel("l1", 4, 2), wbLevel("l2", 16, 4), wbLevel("llc", 64, 8))
}

func TestNewRequiresLevels(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
}

// TestNewRejectsLevels: a level must have a geometry internal/cache
// accepts and be write-back, the only policy the store models.
func TestNewRejectsLevels(t *testing.T) {
	if _, err := New(wbLevel("l1", 12, 4)); err == nil {
		t.Fatal("a level of 3 sets accepted")
	}
	wt := wbLevel("l1", 16, 4)
	wt.Policy = cache.WriteThrough
	if _, err := New(wt); err == nil {
		t.Fatal("a write-through level accepted")
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
	if wb > writes {
		t.Fatalf("writebacks %d > writes %d", wb, writes)
	}
	if wb == 0 {
		t.Fatal("no writebacks from a thrashing write stream")
	}
}

func TestRewriteAfterEvictionStaysConsistent(t *testing.T) {
	// A line written, evicted to L2 (dirty), then re-written in L1,
	// must never lose its dirtiness, and must not reach memory while
	// the levels below hold it.
	h := tiny(t)
	wb := 0
	h.OnMemWriteback = func(cache.Line) { wb++ }
	for round := 0; round < 50; round++ {
		h.Access(0, true)
		h.Access(2, false)
		h.Access(4, false) // pushes 0 out of L1 into L2
	}
	if _, dirty := h.lines(1); !slices.Contains(dirty, 0) {
		t.Fatalf("L2 lost line 0's dirtiness: dirty lines %v", dirty)
	}
	if wb != 0 {
		t.Fatalf("%d memory writebacks while every level below L1 holds the line", wb)
	}
}

func TestDefaultGeometry(t *testing.T) {
	h := Default(4096, 32)
	if h.Depth() != 3 {
		t.Fatalf("levels = %d", h.Depth())
	}
	if lines, ways := h.LLC(); lines != 65536 || ways != 32 {
		t.Fatalf("LLC %d lines x %d ways, want 65536 x 32", lines, ways)
	}
	for k, want := range []int{1024, 8192, 65536} {
		if got := len(h.levels[k].tags); got != want {
			t.Fatalf("level %d holds %d lines, want %d", k, got, want)
		}
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
// stores as writes. gamess keeps its loads in the LLC-resident set;
// gcc and milc stream theirs through it. Each profile replays two
// ways. In the first, the first replayOps ops of the stream go through
// once untimed, then round again per op timed, so no line is ever
// cold. The _cold one resets the hierarchy before each pass, timed, as
// every engine run starts from a reset hierarchy: a line's first
// access in a pass takes the cold path.
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"gamess", "gcc", "milc"} {
		p, _ := trace.ProfileByName(name)
		ops := make([]trace.Op, replayOps)
		trace.NewGenerator(p).Fill(ops, ^uint64(0))
		b.Run(name, func(b *testing.B) {
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
		b.Run(name+"_cold", func(b *testing.B) {
			h := Default(4096, 32)
			for i := 0; i < b.N; i++ {
				if i%replayOps == 0 {
					h.Reset()
				}
				op := ops[i%replayOps]
				h.Access(cache.Line(op.Block), op.Kind == trace.OpStore)
			}
		})
	}
}
