package hier

import (
	"fmt"
	"slices"
	"testing"

	"plp/internal/cache"
	"plp/internal/xrand"
)

// refHierarchy is the reference the hierarchy is held to: its levels
// are internal/cache caches, wired so that each level's dirty
// evictions fill the level below as dirty lines, and its access is the
// earlier one that re-inserts a line into every level above the one it
// hit.
type refHierarchy struct {
	levels   []*cache.Cache
	memReads uint64
	wb       []cache.Line // lines the last level wrote back to memory
}

func newRefHierarchy(cfgs ...cache.Config) *refHierarchy {
	r := &refHierarchy{}
	for _, cfg := range cfgs {
		r.levels = append(r.levels, cache.MustNew(cfg))
	}
	for i := 0; i < len(r.levels)-1; i++ {
		r.levels[i].OnWriteback = r.levels[i+1].WritebackFill
	}
	r.levels[len(r.levels)-1].OnWriteback = func(l cache.Line) { r.wb = append(r.wb, l) }
	return r
}

func (r *refHierarchy) access(l cache.Line, write bool) int {
	for depth, c := range r.levels {
		if c.Access(l, write && depth == 0) {
			for up := depth - 1; up >= 0; up-- {
				r.levels[up].Insert(l)
			}
			return depth
		}
	}
	r.memReads++
	return len(r.levels)
}

func (r *refHierarchy) reset() {
	for _, c := range r.levels {
		c.Reset()
	}
	r.memReads = 0
}

type refSnapshot struct {
	levels   []*cache.Snapshot
	memReads uint64
}

func (r *refHierarchy) snapshot() refSnapshot {
	s := refSnapshot{memReads: r.memReads}
	for _, c := range r.levels {
		s.levels = append(s.levels, c.Snapshot())
	}
	return s
}

func (r *refHierarchy) restore(s refSnapshot) {
	for i, c := range r.levels {
		if err := c.Restore(s.levels[i]); err != nil {
			panic(err)
		}
	}
	r.memReads = s.memReads
}

// lines returns level k's resident and dirty lines, sorted.
func (h *Hierarchy) lines(k int) (resident, dirty []cache.Line) {
	lv := &h.levels[k]
	for set := range lv.sets {
		for w := 0; w < int(lv.sets[set].n); w++ {
			l := lv.tags[set*lv.ways+w]
			resident = append(resident, l)
			if lv.fps[set*lv.stride+w]&dirtyBit != 0 {
				dirty = append(dirty, l)
			}
		}
	}
	slices.Sort(resident)
	slices.Sort(dirty)
	return resident, dirty
}

// matches reports the first way h and ref disagree: per-level stats,
// MemReads, and when contents is set, every level's resident and
// dirty lines.
func (h *Hierarchy) matches(ref *refHierarchy, contents bool) string {
	if h.MemReads != ref.memReads {
		return fmt.Sprintf("MemReads %d, reference %d", h.MemReads, ref.memReads)
	}
	for k, c := range ref.levels {
		if got := h.levels[k].stats; got != c.Stats {
			return fmt.Sprintf("level %d stats %+v, reference %+v", k, got, c.Stats)
		}
		if !contents {
			continue
		}
		resident, dirty := h.lines(k)
		wantResident, wantDirty := c.ResidentLines(), c.DirtyLines()
		slices.Sort(wantResident)
		slices.Sort(wantDirty)
		if !slices.Equal(resident, wantResident) || !slices.Equal(dirty, wantDirty) {
			return fmt.Sprintf("level %d holds %d lines (%d dirty), reference %d (%d dirty)",
				k, len(resident), len(dirty), len(wantResident), len(wantDirty))
		}
	}
	return ""
}

// wbLevel is a write-back level of the given capacity in lines.
func wbLevel(name string, lines, ways int) cache.Config {
	return cache.Config{Name: name, SizeBytes: lines * 64, LineBytes: 64, Ways: ways, Policy: cache.WriteBack}
}

// pair drives a hierarchy and its reference with the same accesses and
// tallies where the accesses resolved.
type pair struct {
	h             *Hierarchy
	ref           *refHierarchy
	got           []cache.Line // h's memory writebacks in the current access
	depths        []int        // accesses resolved at each depth
	memWritebacks int
}

func newPair(h *Hierarchy, ref *refHierarchy) *pair {
	p := &pair{h: h, ref: ref, depths: make([]int, h.Depth()+1)}
	p.hook()
	return p
}

// hook (re)installs h's memory writeback hook, which Reset drops.
func (p *pair) hook() { p.h.OnMemWriteback = func(l cache.Line) { p.got = append(p.got, l) } }

// step makes one access on both sides and reports how they disagree:
// hit depth, the memory writebacks it caused, MemReads or a level's
// stats.
func (p *pair) step(l cache.Line, write bool) string {
	d, w := p.h.Access(l, write), p.ref.access(l, write)
	if d != w {
		return fmt.Sprintf("line %#x: depth %d, reference %d", l, d, w)
	}
	p.depths[d]++
	if !slices.Equal(p.got, p.ref.wb) {
		return fmt.Sprintf("line %#x: memory writebacks %v, reference %v", l, p.got, p.ref.wb)
	}
	p.memWritebacks += len(p.got)
	p.got, p.ref.wb = p.got[:0], p.ref.wb[:0]
	return p.h.matches(p.ref, false)
}

// finish requires hits at every depth, some memory writebacks, and
// equal contents at every level.
func (p *pair) finish(t *testing.T) {
	t.Helper()
	for d, n := range p.depths {
		if n == 0 {
			t.Fatalf("no access resolved at depth %d: %v", d, p.depths)
		}
	}
	if p.memWritebacks == 0 {
		t.Fatal("the stream never wrote a dirty line back to memory")
	}
	if msg := p.h.matches(p.ref, true); msg != "" {
		t.Fatalf("at the end: %s", msg)
	}
	t.Logf("depths %v, %d memory writebacks", p.depths, p.memWritebacks)
}

// TestStoreMatchesCache holds the hierarchy's tag store to
// internal/cache level by level: five levels of 3, 12, 20, 32 and 512
// ways (way counts that fill a fingerprint word partly, exactly, and
// over several words; the last too wide for a snapshot to keep its
// ring links in bytes) take one seeded mix of demand reads and writes,
// whose dirty victims cascade through every level to memory, with a
// Reset, Snapshot or Restore of both sides about every 20k accesses.
// After every access the hit depth, the memory writebacks, MemReads
// and every level's stats must match; after every Reset, Snapshot and
// Restore and at the end, so must each level's resident and dirty
// lines. Lines come from a hot, a warm and a cold range, the cold ones
// past 2^40, so that hits land at every depth and fingerprints of
// distinct tags collide.
func TestStoreMatchesCache(t *testing.T) {
	cfgs := []cache.Config{wbLevel("l1", 12, 3), wbLevel("l2", 96, 12), wbLevel("l3", 320, 20), wbLevel("l4", 1024, 32), wbLevel("llc", 4096, 512)}
	p := newPair(MustNew(cfgs...), newRefHierarchy(cfgs...))
	r := xrand.New(7)
	var snap *Snapshot
	var refSnap refSnapshot
	restores := 0
	for i := 0; i < 300_000; i++ {
		if r.Intn(20_000) == 0 {
			switch {
			case snap != nil && r.Bool(0.5):
				if err := p.h.Restore(snap); err != nil {
					t.Fatal(err)
				}
				p.ref.restore(refSnap)
				restores++
			case r.Bool(0.5):
				snap, refSnap = p.h.Snapshot(), p.ref.snapshot()
			default:
				p.h.Reset()
				p.ref.reset()
				p.hook()
			}
			if msg := p.h.matches(p.ref, true); msg != "" {
				t.Fatalf("access %d, after a reset, snapshot or restore: %s", i, msg)
			}
		}
		var l cache.Line
		switch x := r.Intn(10); {
		case x < 4:
			l = cache.Line(r.Intn(48))
		case x < 7:
			l = cache.Line(r.Intn(1536))
		default:
			l = 1<<40 + cache.Line(r.Uint64()>>20)%(1<<30)
		}
		if msg := p.step(l, r.Bool(0.4)); msg != "" {
			t.Fatalf("access %d: %s", i, msg)
		}
	}
	if restores == 0 {
		t.Fatal("the stream never restored a snapshot")
	}
	p.finish(t)
}

// TestAccessMatchesReference drives a Table III hierarchy and a
// reference built of internal/cache caches with one seeded access
// stream, and requires the same hit depth, MemReads, memory writeback
// sequence and per-level stats after every access, and the same
// resident and dirty lines per level at the end. The stream mixes an
// L1-sized hot set, an L2-sized warm set and a cold range far beyond
// the LLC, so hits land at every depth and dirty lines cascade to
// memory. Halfway through, the hierarchy is reset and the reference
// replaced by a freshly built one: a reset hierarchy, as the engine's
// run arenas reuse it, must behave like a new one. The LLCs include a
// 20-way one, whose way count is not a power of two.
func TestAccessMatchesReference(t *testing.T) {
	for _, llc := range []struct{ kb, ways int }{{4096, 32}, {256, 16}, {2560, 20}} {
		t.Run(fmt.Sprintf("llc%dKB", llc.kb), func(t *testing.T) {
			t.Parallel()
			cfgs := []cache.Config{wbLevel("l1", 1024, 8), wbLevel("l2", 8192, 16), wbLevel("llc", llc.kb<<4, llc.ways)}
			p := newPair(Default(llc.kb, llc.ways), newRefHierarchy(cfgs...))
			r := xrand.New(uint64(llc.kb))
			for i := 0; i < 400_000; i++ {
				if i == 200_000 {
					p.h.Reset()
					if p.h.OnMemWriteback != nil || p.h.MemReads != 0 {
						t.Fatal("Reset kept OnMemWriteback or MemReads")
					}
					p.ref = newRefHierarchy(cfgs...)
					p.hook()
				}
				var l cache.Line
				switch x := r.Intn(10); {
				case x < 5:
					l = cache.Line(r.Intn(512))
				case x < 8:
					l = cache.Line(r.Intn(6144))
				default:
					l = cache.Line(r.Intn(1 << 20))
				}
				if msg := p.step(l, r.Bool(0.3)); msg != "" {
					t.Fatalf("access %d: %s", i, msg)
				}
			}
			p.finish(t)
		})
	}
}

// has reports whether l's residency bit is set.
func (f *filter) has(l cache.Line) bool {
	c := f.chunks[l>>chunkShift]
	return c != nil && c[l>>6&(chunkWords-1)]&(1<<(l&63)) != 0
}

// filterHolds reports a resident line of h whose residency bit is
// clear, the one thing the filter must never allow.
func (h *Hierarchy) filterHolds() string {
	for k := range h.levels {
		resident, _ := h.lines(k)
		for _, l := range resident {
			if uint64(l) < filterLines && !h.seen.has(l) {
				return fmt.Sprintf("level %d holds line %#x with a clear residency bit", k, l)
			}
		}
	}
	return ""
}

// TestFilterMatchesReference holds the residency filter's cold path to
// the internal/cache reference, which has no filter, over the streams
// the engine gives a hierarchy: a fresh one after Reset; a Snapshot,
// more traffic, and a Restore; then revisits of the lines the snapshot
// holds and of lines evicted before it. Every access must resolve as
// the reference's, and after each phase every resident line must have
// its bit set. A line the snapshot holds must never take the cold
// path: the L1's lines, revisited first, all hit there. A line
// evicted before the snapshot misses, through the cold path: the
// Restore left only the snapshot's lines' bits set. Lines evicted
// during a phase and revisited in it miss through the lookup path. A
// tenth of the lines lie past the filter's range and take the lookup
// path throughout.
func TestFilterMatchesReference(t *testing.T) {
	cfgs := []cache.Config{wbLevel("l1", 64, 4), wbLevel("l2", 512, 8), wbLevel("llc", 2048, 16)}
	p := newPair(MustNew(cfgs...), newRefHierarchy(cfgs...))
	r := xrand.New(11)
	fresh := cache.Line(1 << 20)
	var cold, lookupMisses, far int
	touched := map[cache.Line]bool{}
	access := func(l cache.Line, write bool) (missed bool) {
		t.Helper()
		inRange := uint64(l) < filterLines
		wasCold := inRange && !p.h.seen.has(l)
		misses := p.depths[p.h.Depth()]
		if msg := p.step(l, write); msg != "" {
			t.Fatal(msg)
		}
		missed = p.depths[p.h.Depth()] > misses
		switch {
		case !inRange:
			far++
		case wasCold:
			cold++
		case missed:
			lookupMisses++
		}
		touched[l] = true
		return missed
	}
	phase := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			var l cache.Line
			switch x := r.Intn(10); {
			case x < 3:
				l = cache.Line(r.Intn(96))
			case x < 6:
				l = cache.Line(r.Intn(4096))
			case x < 9:
				l, fresh = fresh, fresh+1
			default:
				l = filterLines + cache.Line(r.Intn(1<<20))
			}
			access(l, r.Bool(0.4))
		}
		if msg := p.h.filterHolds(); msg != "" {
			t.Fatal(msg)
		}
	}

	p.h.Reset()
	p.ref.reset()
	p.hook()
	phase(30_000)
	snap, refSnap := p.h.Snapshot(), p.ref.snapshot()
	held := map[cache.Line]bool{}
	for k := range cfgs {
		resident, _ := p.h.lines(k)
		for _, l := range resident {
			held[l] = true
		}
	}
	var evicted []cache.Line
	for l := range touched {
		if !held[l] && uint64(l) < filterLines {
			evicted = append(evicted, l)
		}
	}
	slices.Sort(evicted)
	l1, _ := p.h.lines(0)
	phase(20_000)
	if err := p.h.Restore(snap); err != nil {
		t.Fatal(err)
	}
	p.ref.restore(refSnap)
	if msg := p.h.matches(p.ref, true); msg != "" {
		t.Fatalf("after Restore: %s", msg)
	}
	if msg := p.h.filterHolds(); msg != "" {
		t.Fatalf("after Restore: %s", msg)
	}
	for _, l := range l1 {
		if d := p.h.Access(l, false); d != 0 || p.ref.access(l, false) != 0 {
			t.Fatalf("line %#x, in the snapshot's L1, resolved at depth %d after Restore", l, d)
		}
	}
	coldBefore := cold
	for _, l := range evicted[:min(len(evicted), 2048)] {
		if !access(l, false) {
			t.Fatalf("line %#x, evicted before the snapshot, hit after Restore", l)
		}
	}
	if cold-coldBefore != min(len(evicted), 2048) {
		t.Fatalf("%d of %d lines evicted before the snapshot took the cold path after Restore",
			cold-coldBefore, min(len(evicted), 2048))
	}
	phase(20_000)

	p.h.Reset()
	p.ref = newRefHierarchy(cfgs...)
	p.hook()
	phase(10_000)
	if cold == 0 || lookupMisses == 0 || far == 0 {
		t.Fatalf("cold %d, lookup-path misses %d, past the range %d: a path went unexercised", cold, lookupMisses, far)
	}
	p.finish(t)
	t.Logf("%d lines evicted before the snapshot; cold path %d, lookup-path misses %d, past the filter's range %d",
		len(evicted), cold, lookupMisses, far)
}
