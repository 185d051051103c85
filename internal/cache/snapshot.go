package cache

import "fmt"

// Snapshot is a deep copy of a cache's complete state: tags,
// valid/dirty bits and per-set valid counts, the LRU ordering (via the
// per-way stamps and the global clock), and the statistics counters.
// It backs the engine's warm-up checkpoints: restoring a snapshot and
// replaying the same access stream reproduces the original cache
// behaviour bit for bit.
type Snapshot struct {
	sets     int
	ways     int
	policy   Policy
	lruClock uint64
	tags     []Line
	lru      []uint64
	flags    []uint8
	nvalid   []uint32
	stats    Stats
}

// Snapshot captures the cache's current state. The copy is deep:
// later accesses to the cache do not disturb it, and one snapshot may
// be restored any number of times.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{
		sets: c.sets, ways: c.waysPer, policy: c.policy,
		lruClock: c.lruClock, stats: c.Stats,
		tags:   append([]Line(nil), c.tags...),
		lru:    append([]uint64(nil), c.lru...),
		flags:  append([]uint8(nil), c.flags...),
		nvalid: append([]uint32(nil), c.nvalid...),
	}
}

// Restore resets the cache to a previously captured snapshot. The
// snapshot must come from a cache of identical geometry and policy —
// tags index into sets by geometry, so anything else would silently
// scramble the contents; Restore rejects it instead. OnWriteback is
// left untouched, and the cache forgets which way it touched last. The
// snapshot remains valid for further restores.
func (c *Cache) Restore(s *Snapshot) error {
	if s.sets != c.sets || s.ways != c.waysPer || s.policy != c.policy {
		return fmt.Errorf("cache %s: snapshot geometry %d sets x %d ways (policy %d) does not match %d sets x %d ways (policy %d)",
			c.name, s.sets, s.ways, s.policy, c.sets, c.waysPer, c.policy)
	}
	copy(c.tags, s.tags)
	copy(c.lru, s.lru)
	copy(c.flags, s.flags)
	copy(c.nvalid, s.nvalid)
	c.lruClock = s.lruClock
	c.last = -1
	c.Stats = s.stats
	return nil
}

// Bytes returns the snapshot's approximate memory footprint: its three
// way arrays (8-byte tag, 8-byte stamp and one flag byte per way), its
// 4-byte valid count per set, and a fixed allowance for the header.
func (s *Snapshot) Bytes() uint64 {
	return uint64(len(s.tags))*8 + uint64(len(s.lru))*8 + uint64(len(s.flags)) + uint64(len(s.nvalid))*4 + 128
}
