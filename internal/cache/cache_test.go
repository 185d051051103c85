package cache

import (
	"testing"
	"testing/quick"

	"plp/internal/addr"
	"plp/internal/trace"
)

func small(policy Policy) *Cache {
	// 4 sets x 2 ways x 64B lines = 512B
	return MustNew(Config{Name: "t", SizeBytes: 512, LineBytes: 64, Ways: 2, Policy: policy})
}

func TestGeometry(t *testing.T) {
	c := small(WriteBack)
	if c.Sets() != 4 || c.Ways() != 2 || c.Capacity() != 8 {
		t.Fatalf("geometry: sets=%d ways=%d cap=%d", c.Sets(), c.Ways(), c.Capacity())
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Ways: 1},
		{Name: "badmult", SizeBytes: 100, LineBytes: 64, Ways: 1},
		{Name: "badways", SizeBytes: 64 * 3, LineBytes: 64, Ways: 2},
		{Name: "notpow2", SizeBytes: 64 * 6, LineBytes: 64, Ways: 2}, // 3 sets
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %s: expected error", cfg.Name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{Name: "bad", SizeBytes: 1, LineBytes: 64, Ways: 1})
}

func TestHitMiss(t *testing.T) {
	c := small(WriteBack)
	if hit := c.Access(1, false); hit {
		t.Fatal("first access should miss")
	}
	if hit := c.Access(1, false); !hit {
		t.Fatal("second access should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(WriteBack)
	// Lines 0, 4, 8 map to set 0 (4 sets). 2 ways.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 now MRU; 4 is LRU
	c.Access(8, false) // evicts 4
	if !c.Contains(0) || c.Contains(4) || !c.Contains(8) {
		t.Fatalf("LRU eviction wrong: 0=%v 4=%v 8=%v", c.Contains(0), c.Contains(4), c.Contains(8))
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small(WriteBack)
	var wb []Line
	c.OnWriteback = func(l Line) { wb = append(wb, l) }
	c.Access(0, true)  // dirty
	c.Access(4, false) // clean
	c.Access(8, false) // evicts LRU = 0 (dirty)
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("writebacks = %v", wb)
	}
	c.Access(12, false) // evicts 4 (clean): no writeback
	if len(wb) != 1 {
		t.Fatalf("clean eviction produced writeback: %v", wb)
	}
	if c.Stats.Evictions != 2 || c.Stats.Writebacks != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := small(WriteThrough)
	var wb []Line
	c.OnWriteback = func(l Line) { wb = append(wb, l) }
	c.Access(0, true)
	if c.Dirty(0) {
		t.Fatal("write-through line marked dirty")
	}
	c.Access(4, true)
	c.Access(8, true)
	if len(wb) != 0 {
		t.Fatalf("write-through produced writebacks: %v", wb)
	}
}

func TestFlushAll(t *testing.T) {
	c := small(WriteBack)
	var wb []Line
	c.OnWriteback = func(l Line) { wb = append(wb, l) }
	c.Access(0, true)
	c.Access(1, false)
	c.Access(2, true)
	c.FlushAll()
	if len(wb) != 2 {
		t.Fatalf("flush writebacks = %v", wb)
	}
	if len(c.ResidentLines()) != 0 {
		t.Fatal("lines remain after FlushAll")
	}
}

func TestDirtyLines(t *testing.T) {
	c := small(WriteBack)
	c.Access(0, true)
	c.Access(1, false)
	c.Access(2, true)
	d := c.DirtyLines()
	if len(d) != 2 {
		t.Fatalf("dirty = %v", d)
	}
	seen := map[Line]bool{}
	for _, l := range d {
		seen[l] = true
	}
	if !seen[0] || !seen[2] || seen[1] {
		t.Fatalf("dirty set wrong: %v", d)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(WriteBack)
	c.Access(0, true)
	if !c.Invalidate(0) {
		t.Fatal("invalidate should report dirty")
	}
	if c.Contains(0) {
		t.Fatal("line still present after invalidate")
	}
	if c.Invalidate(0) {
		t.Fatal("second invalidate should report clean/absent")
	}
}

func TestCleanLine(t *testing.T) {
	c := small(WriteBack)
	c.Access(0, true)
	c.CleanLine(0)
	if c.Dirty(0) {
		t.Fatal("line still dirty after CleanLine")
	}
	var wb []Line
	c.OnWriteback = func(l Line) { wb = append(wb, l) }
	c.Access(4, false)
	c.Access(8, false) // evict 0
	if len(wb) != 0 {
		t.Fatalf("cleaned line wrote back: %v", wb)
	}
}

func TestInsertDoesNotCountAccess(t *testing.T) {
	c := small(WriteBack)
	c.Insert(3)
	if c.Stats.Hits+c.Stats.Misses != 0 {
		t.Fatalf("Insert counted as access: %+v", c.Stats)
	}
	if !c.Contains(3) {
		t.Fatal("Insert did not fill")
	}
}

func TestHitRate(t *testing.T) {
	c := small(WriteBack)
	if c.Stats.HitRate() != 0 {
		t.Fatal("empty cache hit rate should be 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.Stats.HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", hr)
	}
}

// Property: the cache never holds more than Ways lines of one set, and
// a line accessed twice in a row always hits the second time.
func TestPropertyRehitAndBound(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		c := small(WriteBack)
		for _, op := range ops {
			l := Line(op % 64)
			c.Access(l, op%2 == 0)
			if !c.Contains(l) {
				return false // just-accessed line must be resident
			}
			if hit := c.Access(l, false); !hit {
				return false
			}
		}
		// capacity bound
		return len(c.ResidentLines()) <= c.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: number of writebacks never exceeds number of write accesses.
func TestPropertyWritebackBound(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small(WriteBack)
		wb := 0
		c.OnWriteback = func(Line) { wb++ }
		writes := 0
		for _, op := range ops {
			w := op%3 == 0
			if w {
				writes++
			}
			c.Access(Line(op%256), w)
		}
		c.FlushAll()
		return wb <= writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectMapped(t *testing.T) {
	c := MustNew(Config{Name: "dm", SizeBytes: 256, LineBytes: 64, Ways: 1, Policy: WriteBack})
	c.Access(0, false)
	c.Access(4, false) // same set (4 sets), 1 way: evicts 0
	if c.Contains(0) {
		t.Fatal("direct-mapped conflict should evict")
	}
}

func TestFullyAssociative(t *testing.T) {
	c := MustNew(Config{Name: "fa", SizeBytes: 512, LineBytes: 64, Ways: 8, Policy: WriteBack})
	for i := 0; i < 8; i++ {
		c.Access(Line(i*16), false)
	}
	for i := 0; i < 8; i++ {
		if !c.Contains(Line(i * 16)) {
			t.Fatalf("fully associative lost line %d", i*16)
		}
	}
}

// BenchmarkAccess cycles lines in order through a 2048-line 8-way
// cache, one write in four: 4096 lines miss on every access (each
// fill evicts, half of them dirty), 1024 lines hit on every access
// after the first pass.
func BenchmarkAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines int
	}{{"miss", 4096}, {"hit", 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			c := MustNew(Config{Name: "b", SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, Policy: WriteBack})
			for i := 0; i < b.N; i++ {
				c.Access(Line(i%bc.lines), i%4 == 0)
			}
		})
	}
}

// replayOps is how many ops of a profile's stream BenchmarkReplay
// replays; a power of two, so indexing by i%replayOps costs no division.
const replayOps = 1 << 20

// BenchmarkReplay sends a 128 KB 8-way counter cache what warm-ups,
// loads and persists send it: the counter line (page) of each op of a
// profile's stream, its stores as writes. The first replayOps ops go
// through once untimed, then round again per op timed. Consecutive
// ops often share a page, so this is mostly repeat hits.
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"gamess", "gcc", "milc"} {
		b.Run(name, func(b *testing.B) {
			p, _ := trace.ProfileByName(name)
			ops := make([]trace.Op, replayOps)
			trace.NewGenerator(p).Fill(ops, ^uint64(0))
			c := MustNew(Config{Name: "ctr", SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, Policy: WriteBack})
			for _, op := range ops {
				c.Access(Line(addr.PageOfBlock(op.Block)), op.Kind == trace.OpStore)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := ops[i%replayOps]
				c.Access(Line(addr.PageOfBlock(op.Block)), op.Kind == trace.OpStore)
			}
		})
	}
}

func TestNameAccessor(t *testing.T) {
	if small(WriteBack).Name() != "t" {
		t.Fatal("Name accessor wrong")
	}
}

func TestInsertTouchesExisting(t *testing.T) {
	c := small(WriteBack)
	c.Access(0, true)
	c.Access(4, false) // set 0 now: 0 (LRU-ish), 4
	c.Insert(0)        // touch 0 → 4 becomes LRU
	c.Access(8, false) // evicts 4
	if !c.Contains(0) || c.Contains(4) {
		t.Fatal("Insert did not refresh LRU position")
	}
	if !c.Dirty(0) {
		t.Fatal("Insert cleared the dirty bit")
	}
}

func TestWritebackFillMarksDirty(t *testing.T) {
	c := small(WriteBack)
	c.WritebackFill(3)
	if !c.Dirty(3) {
		t.Fatal("WritebackFill did not mark dirty")
	}
	// Existing clean line becomes dirty.
	c.Access(5, false)
	c.WritebackFill(5)
	if !c.Dirty(5) {
		t.Fatal("existing line not dirtied")
	}
}

func TestWritebackFillEvictsThroughCallback(t *testing.T) {
	c := small(WriteBack)
	var wb []Line
	c.OnWriteback = func(l Line) { wb = append(wb, l) }
	c.WritebackFill(0)
	c.WritebackFill(4)
	c.WritebackFill(8) // set 0 full: evicts dirty 0
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("writebacks = %v", wb)
	}
}

func TestWritebackFillWriteThroughPropagates(t *testing.T) {
	c := small(WriteThrough)
	var wb []Line
	c.OnWriteback = func(l Line) { wb = append(wb, l) }
	c.WritebackFill(7)
	if len(wb) != 1 || wb[0] != 7 {
		t.Fatalf("write-through propagation = %v", wb)
	}
	if c.Dirty(7) {
		t.Fatal("write-through line dirty")
	}
}
