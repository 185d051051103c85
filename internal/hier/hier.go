// Package hier composes set-associative caches into the multi-level
// write-back hierarchy of the paper's Table III (L1 64KB/8-way,
// L2 512KB/16-way, LLC 4MB/32-way, all 64B lines): demand accesses
// walk down on misses and fill upward; dirty evictions cascade level
// to level; dirty evictions from the last level are the memory-side
// writebacks that the secure_WB baseline must push through the
// integrity engine.
package hier

import (
	"fmt"

	"plp/internal/cache"
)

// Hierarchy is an inclusive-fill multi-level write-back cache.
type Hierarchy struct {
	levels []*cache.Cache
	// OnMemWriteback receives dirty lines evicted from the last level.
	OnMemWriteback func(cache.Line)
	// MemReads counts demand misses that reached memory.
	MemReads uint64
}

// New composes the given caches (nearest first). All levels should be
// write-back; a nil OnWriteback on any level is overwritten.
func New(levels ...*cache.Cache) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("hier: need at least one level")
	}
	h := &Hierarchy{levels: levels}
	for i := 0; i < len(levels)-1; i++ {
		next := levels[i+1]
		levels[i].OnWriteback = next.WritebackFill
	}
	levels[len(levels)-1].OnWriteback = func(l cache.Line) {
		if h.OnMemWriteback != nil {
			h.OnMemWriteback(l)
		}
	}
	return h, nil
}

// MustNew is New but panics on error.
func MustNew(levels ...*cache.Cache) *Hierarchy {
	h, err := New(levels...)
	if err != nil {
		panic(err)
	}
	return h
}

// Default builds the paper's Table III data hierarchy with the given
// LLC capacity (KB) and associativity.
func Default(llcKB, llcWays int) *Hierarchy {
	mk := func(name string, kb, ways int) *cache.Cache {
		return cache.MustNew(cache.Config{
			Name: name, SizeBytes: kb << 10, LineBytes: 64,
			Ways: ways, Policy: cache.WriteBack,
		})
	}
	return MustNew(
		mk("l1", 64, 8),
		mk("l2", 512, 16),
		mk("llc", llcKB, llcWays),
	)
}

// Levels returns the composed caches, nearest first.
func (h *Hierarchy) Levels() []*cache.Cache { return h.levels }

// Access performs a demand read (write=false) or write (write=true).
// It returns the depth at which the line hit (0 = L1), or len(levels)
// for a memory access.
//
// A hit fills nothing above it. Each level's own Access fills the
// line on a miss, so by the time a deeper level hits, every level
// above already holds it, and nothing has touched those levels since
// their fill: a fill's dirty victim cascades only downward, into the
// levels below. The line therefore still carries the newest use stamp
// of its cache. Re-inserting it there would only bump that stamp,
// without changing any set's LRU order, hit, eviction or writeback.
func (h *Hierarchy) Access(l cache.Line, write bool) int {
	for depth, c := range h.levels {
		if c.Access(l, write && depth == 0) {
			return depth
		}
	}
	h.MemReads++
	return len(h.levels)
}

// Reset empties every level, zeroes MemReads and drops
// OnMemWriteback, leaving the hierarchy as New built it; the wiring
// between levels stays.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
	h.MemReads = 0
	h.OnMemWriteback = nil
}

// FlushAll drains every level, cascading dirty lines downward and out.
func (h *Hierarchy) FlushAll() {
	for _, c := range h.levels {
		c.FlushAll()
	}
}

// DirtyAnywhere reports whether l is dirty at any level.
func (h *Hierarchy) DirtyAnywhere(l cache.Line) bool {
	for _, c := range h.levels {
		if c.Dirty(l) {
			return true
		}
	}
	return false
}
