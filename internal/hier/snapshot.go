package hier

import (
	"fmt"
	"slices"
)

// Snapshot is a deep copy of a hierarchy's complete state: every
// level's ways, recency rings, set counts and statistics, plus the
// memory-read counter. It backs the engine's warm-up checkpoints:
// restoring a snapshot and replaying the same access stream reproduces
// the original behaviour bit for bit.
type Snapshot struct {
	levels   []levelSnapshot
	memReads uint64
}

// levelSnapshot is one level's state: a copy of the level with its
// own arrays, except that a level of at most 256 ways keeps its ring
// links in one byte each, beside it, instead of in its four-byte
// older and newer arrays (which it leaves nil).
type levelSnapshot struct {
	level
	older8, newer8 []uint8
}

// Snapshot captures the hierarchy's current state. The copy is deep:
// later accesses do not disturb it, and it may be restored any number
// of times.
func (h *Hierarchy) Snapshot() *Snapshot {
	s := &Snapshot{memReads: h.MemReads, levels: make([]levelSnapshot, len(h.levels))}
	for i := range h.levels {
		lv := &h.levels[i]
		c := levelSnapshot{level: *lv}
		c.tags = slices.Clone(lv.tags)
		c.fps = slices.Clone(lv.fps)
		c.sets = slices.Clone(lv.sets)
		if lv.ways <= 256 {
			c.older, c.newer = nil, nil
			c.older8, c.newer8 = make([]uint8, len(lv.older)), make([]uint8, len(lv.newer))
			for j, o := range lv.older {
				c.older8[j], c.newer8[j] = uint8(o), uint8(lv.newer[j])
			}
		} else {
			c.older, c.newer = slices.Clone(lv.older), slices.Clone(lv.newer)
		}
		s.levels[i] = c
	}
	return s
}

// Restore resets the hierarchy to a previously captured snapshot, and
// its residency filter to the lines the snapshot holds. The target
// must have the same level count and per-level geometry;
// OnMemWriteback is left untouched.
func (h *Hierarchy) Restore(s *Snapshot) error {
	if len(s.levels) != len(h.levels) {
		return fmt.Errorf("hier: snapshot has %d levels, hierarchy has %d", len(s.levels), len(h.levels))
	}
	for i := range h.levels {
		lv, sv := &h.levels[i], &s.levels[i]
		if len(sv.sets) != len(lv.sets) || sv.ways != lv.ways {
			return fmt.Errorf("hier: level %d: snapshot geometry %d sets x %d ways does not match %d sets x %d ways",
				i, len(sv.sets), sv.ways, len(lv.sets), lv.ways)
		}
	}
	for i := range h.levels {
		lv, sv := &h.levels[i], &s.levels[i]
		copy(lv.tags, sv.tags)
		copy(lv.fps, sv.fps)
		copy(lv.sets, sv.sets)
		if sv.older8 != nil {
			for j, o := range sv.older8 {
				lv.older[j], lv.newer[j] = uint32(o), uint32(sv.newer8[j])
			}
		} else {
			copy(lv.older, sv.older)
			copy(lv.newer, sv.newer)
		}
		lv.stats = sv.stats
	}
	h.seen.reset()
	for i := range h.levels {
		lv := &h.levels[i]
		for set, st := range lv.sets {
			for _, l := range lv.tags[set*lv.ways : set*lv.ways+int(st.n)] {
				h.seen.add(l)
			}
		}
	}
	h.MemReads = s.memReads
	return nil
}

// Bytes returns the snapshot's approximate memory footprint: per way
// an 8-byte tag and two ring links (one byte each up to 256 ways, else
// four); per set its fingerprint-and-dirty bytes and its 8-byte head
// and count; and a fixed allowance per level and for the header.
func (s *Snapshot) Bytes() uint64 {
	var n uint64
	for i := range s.levels {
		lv := &s.levels[i]
		links := uint64(len(lv.older8)+len(lv.newer8)) + 4*uint64(len(lv.older)+len(lv.newer))
		n += uint64(len(lv.tags))*8 + links + uint64(len(lv.fps)) + uint64(len(lv.sets))*8 + 192
	}
	return n + 64
}
