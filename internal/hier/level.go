package hier

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"plp/internal/cache"
)

// level is one write-back level's tag store. It is tuned for the
// hierarchy's traffic, which is the opposite of the metadata caches'
// that internal/cache serves: most demand accesses miss every level,
// so a miss, not a hit, must be cheap.
//
// Lookup: each way keeps a byte beside its full tag, a 7-bit
// fingerprint of the tag under the way's dirty bit. A set's bytes sit
// next to each other, padded to a multiple of eight, so find compares
// eight ways per 64-bit word and loads a full tag only where a
// fingerprint matches, and a fill finds its victim's dirty bit in the
// host line the lookup just read.
//
// Replacement is exact LRU kept as a circular recency ring per set:
// older and newer link each valid way to its neighbours in recency
// order, the set's head is its most recently used way, and the least
// recently used one is the head's newer neighbour, closing the circle.
// A miss in a full set fills that neighbour, which then only has to
// become the head: the ring already puts it next to the old one. A hit
// relinks its way in front of the head.
//
// Nothing invalidates a single way (the hierarchy has no invalidate,
// and Reset empties a level whole), and a fill takes the lowest
// invalid way, so a set's valid ways are always its first n. The scan
// stops at n, and Reset clears only the per-set counts.
type level struct {
	ways   int
	stride int    // fingerprint bytes per set: ways rounded up to a multiple of 8
	mask   uint64 // sets-1
	shift  uint   // log2(sets): a line's bits above its set index are its tag

	tags  []cache.Line // line held by each way, sets*ways of them
	fps   []byte       // each way's fingerprint and dirty bit, stride bytes per set
	older []uint32     // set-relative index of each valid way's less recent neighbour
	newer []uint32     // and of its more recent one (the LRU way's for the head)
	sets  []setState

	stats cache.Stats
}

// setState is a set's ring head and the number of its valid ways.
type setState struct {
	head, n uint32
}

// newLevel builds an empty level of a write-back geometry that
// cache.Config.Validate accepts.
func newLevel(cfg cache.Config) (level, error) {
	if err := cfg.Validate(); err != nil {
		return level{}, fmt.Errorf("hier: %w", err)
	}
	if cfg.Policy != cache.WriteBack {
		return level{}, fmt.Errorf("hier: level %s is not write-back", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	stride := (cfg.Ways + 7) &^ 7
	return level{
		ways:   cfg.Ways,
		stride: stride,
		mask:   uint64(sets - 1),
		shift:  uint(bits.TrailingZeros(uint(sets))),
		tags:   make([]cache.Line, lines),
		fps:    make([]byte, sets*stride),
		older:  make([]uint32, lines),
		newer:  make([]uint32, lines),
		sets:   make([]setState, sets),
	}, nil
}

// reset empties the level and zeroes its statistics. Tags,
// fingerprints, dirty bits and links stay stale behind the zero
// counts; a fill rewrites each before anything reads it.
func (lv *level) reset() {
	clear(lv.sets)
	lv.stats = cache.Stats{}
}

// A way's fps byte: its dirty bit, and the fingerprint below it.
const dirtyBit = 0x80

// SWAR constants: per byte, the low bit, the high (dirty) bit, and the
// fingerprint bits.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
	fpBits   = 0x7f7f7f7f7f7f7f7f
)

// fingerprint hashes l's tag to seven bits; a multiplicative hash
// keeps strided lines from sharing one.
func (lv *level) fingerprint(l cache.Line) byte {
	return byte((uint64(l) >> lv.shift) * 0x9E3779B97F4A7C15 >> 57)
}

// find returns the set-relative index of the valid way in set that
// holds l, or -1. A word's bytes whose fingerprint equals l's come out
// of the zero-byte test on their XOR; the test can also flag a byte
// above a true match, which the full-tag compare rejects.
func (lv *level) find(l cache.Line, set int) int {
	n := int(lv.sets[set].n)
	base, fbase := set*lv.ways, set*lv.stride
	want := uint64(lv.fingerprint(l)) * lowBits
	for off := 0; off < n; off += 8 {
		x := binary.LittleEndian.Uint64(lv.fps[fbase+off:])&fpBits ^ want
		for m := (x - lowBits) & highBits; m != 0; m &= m - 1 {
			w := off + bits.TrailingZeros64(m)>>3
			if w >= n {
				return -1
			}
			if lv.tags[base+w] == l {
				return w
			}
		}
	}
	return -1
}

// touch makes way w of set (set-relative) the set's most recently
// used way.
func (lv *level) touch(set, w int) {
	st := &lv.sets[set]
	h := int(st.head)
	if w == h {
		return
	}
	base := set * lv.ways
	if lru := int(lv.newer[base+h]); w != lru {
		// Unlink w, then link it between the LRU way and the head.
		o, n := lv.older[base+w], lv.newer[base+w]
		lv.newer[base+int(o)] = n
		lv.older[base+int(n)] = o
		lv.older[base+w], lv.newer[base+w] = uint32(h), uint32(lru)
		lv.newer[base+h], lv.older[base+lru] = uint32(w), uint32(w)
	}
	st.head = uint32(w)
}

// fill installs l in set as its most recently used line, dirty when
// write is set: in the lowest invalid way if the set has one, else in
// its LRU way. It returns the dirty line it displaced, if any.
func (lv *level) fill(l cache.Line, set int, write bool) (victim cache.Line, wb bool) {
	st := &lv.sets[set]
	base, fbase := set*lv.ways, set*lv.stride
	var w int
	switch n := int(st.n); {
	case n == lv.ways:
		w = int(lv.newer[base+int(st.head)])
		lv.stats.Evictions++
		if lv.fps[fbase+w]&dirtyBit != 0 {
			lv.stats.Writebacks++
			victim, wb = lv.tags[base+w], true
		}
	case n == 0:
		w = 0
		lv.older[base], lv.newer[base] = 0, 0
		st.n = 1
	default:
		w = n
		h := st.head
		lru := lv.newer[base+int(h)]
		lv.older[base+w], lv.newer[base+w] = h, lru
		lv.newer[base+int(h)], lv.older[base+int(lru)] = uint32(w), uint32(w)
		st.n++
	}
	st.head = uint32(w)
	lv.tags[base+w] = l
	fp := lv.fingerprint(l)
	if write {
		fp |= dirtyBit
	}
	lv.fps[fbase+w] = fp
	return victim, wb
}

// access is a demand read (write=false) or write of l, filling on a
// miss. It reports a hit, and the dirty line a miss displaced, if any.
func (lv *level) access(l cache.Line, write bool) (hit bool, victim cache.Line, wb bool) {
	set := int(uint64(l) & lv.mask)
	if w := lv.find(l, set); w >= 0 {
		lv.count(write)
		lv.stats.Hits++
		lv.touch(set, w)
		if write {
			lv.fps[set*lv.stride+w] |= dirtyBit
		}
		return true, 0, false
	}
	victim, wb = lv.miss(l, write)
	return false, victim, wb
}

// miss is a demand read or write of l, which the level does not hold:
// it counts the access and the miss and fills l, returning the dirty
// line the fill displaced, if any.
func (lv *level) miss(l cache.Line, write bool) (victim cache.Line, wb bool) {
	lv.count(write)
	lv.stats.Misses++
	return lv.fill(l, int(uint64(l)&lv.mask), write)
}

// count counts a demand read or write.
func (lv *level) count(write bool) {
	if write {
		lv.stats.Writes++
	} else {
		lv.stats.Reads++
	}
}

// writebackFill takes a dirty line evicted from the level above: the
// line becomes (or stays) resident and dirty, as its most recently
// used line, without counting as a demand access. It returns the dirty
// line a fill displaced, if any.
func (lv *level) writebackFill(l cache.Line) (victim cache.Line, wb bool) {
	set := int(uint64(l) & lv.mask)
	if w := lv.find(l, set); w >= 0 {
		lv.touch(set, w)
		lv.fps[set*lv.stride+w] |= dirtyBit
		return 0, false
	}
	return lv.fill(l, set, true)
}
