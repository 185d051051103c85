// Package hier models the multi-level write-back data hierarchy of the
// paper's Table III (L1 64KB/8-way, L2 512KB/16-way, LLC 4MB/32-way,
// all 64B lines): demand accesses walk down on misses and fill upward;
// dirty evictions cascade level to level; dirty evictions from the
// last level are the memory-side writebacks that the secure_WB
// baseline must push through the integrity engine.
//
// Each level is a tag store of its own (see level), tuned for misses,
// which dominate this traffic; internal/cache, which the metadata
// caches use, is tuned for hits and serves as the levels' reference in
// the tests. Most misses are to lines no level has held since the last
// Reset, so the hierarchy also keeps a "possibly resident" bit per
// line (see filter): an access whose bit is clear misses everywhere,
// and fills every level without a tag search. The hierarchy keeps the
// same hits, misses, evictions, writebacks and LRU order as levels
// built from internal/cache.
package hier

import (
	"fmt"

	"plp/internal/cache"
)

// Hierarchy is an inclusive-fill multi-level write-back cache.
type Hierarchy struct {
	levels []level
	seen   filter
	// OnMemWriteback receives dirty lines evicted from the last level.
	OnMemWriteback func(cache.Line)
	// MemReads counts demand misses that reached memory.
	MemReads uint64
}

// New builds a hierarchy of the given write-back levels, nearest
// first. Each geometry must pass cache.Config.Validate.
func New(levels ...cache.Config) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("hier: need at least one level")
	}
	h := &Hierarchy{levels: make([]level, len(levels))}
	for i, cfg := range levels {
		lv, err := newLevel(cfg)
		if err != nil {
			return nil, err
		}
		h.levels[i] = lv
	}
	return h, nil
}

// MustNew is New but panics on error.
func MustNew(levels ...cache.Config) *Hierarchy {
	h, err := New(levels...)
	if err != nil {
		panic(err)
	}
	return h
}

// Default builds the paper's Table III data hierarchy with the given
// LLC capacity (KB) and associativity.
func Default(llcKB, llcWays int) *Hierarchy {
	mk := func(name string, kb, ways int) cache.Config {
		return cache.Config{
			Name: name, SizeBytes: kb << 10, LineBytes: 64,
			Ways: ways, Policy: cache.WriteBack,
		}
	}
	return MustNew(
		mk("l1", 64, 8),
		mk("l2", 512, 16),
		mk("llc", llcKB, llcWays),
	)
}

// Depth returns the number of levels; Access returns it for a line
// that came from memory.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// LLC returns the last level's capacity in lines and its associativity.
func (h *Hierarchy) LLC() (lines, ways int) {
	lv := &h.levels[len(h.levels)-1]
	return len(lv.tags), lv.ways
}

// Access performs a demand read (write=false) or write (write=true).
// It returns the depth at which the line hit (0 = L1), or Depth() for
// a memory access.
//
// A miss fills the line at each level it passes; a dirty line that
// fill displaces cascades into the levels below before the walk goes
// on. A hit fills nothing above it: every level above already holds
// the line, filled by this access's own walk and untouched since (a
// displaced line cascades only downward), so it still heads its set's
// recency ring there.
//
// A line whose residency bit is clear (see filter) misses every level,
// so its access skips the tag searches: each level counts the access
// and the miss and fills the line, with the same victims, cascades and
// counts as the lookup path.
func (h *Hierarchy) Access(l cache.Line, write bool) int {
	if h.seen.add(l) {
		for depth := range h.levels {
			victim, wb := h.levels[depth].miss(l, write && depth == 0)
			if wb {
				h.writeback(depth+1, victim)
			}
		}
		h.MemReads++
		return len(h.levels)
	}
	for depth := range h.levels {
		hit, victim, wb := h.levels[depth].access(l, write && depth == 0)
		if wb {
			h.writeback(depth+1, victim)
		}
		if hit {
			return depth
		}
	}
	h.MemReads++
	return len(h.levels)
}

// writeback sends l, a dirty line displaced from the level above
// depth, down the hierarchy: each level takes it as a dirty fill, and
// a dirty line the last level displaces goes to OnMemWriteback.
func (h *Hierarchy) writeback(depth int, l cache.Line) {
	for ; depth < len(h.levels); depth++ {
		var wb bool
		if l, wb = h.levels[depth].writebackFill(l); !wb {
			return
		}
	}
	if h.OnMemWriteback != nil {
		h.OnMemWriteback(l)
	}
}

// Reset empties every level, zeroes the statistics and MemReads and
// drops OnMemWriteback, leaving the hierarchy as New built it.
func (h *Hierarchy) Reset() {
	for i := range h.levels {
		h.levels[i].reset()
	}
	h.seen.reset()
	h.MemReads = 0
	h.OnMemWriteback = nil
}
