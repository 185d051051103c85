// Package cache implements a set-associative cache with true-LRU
// replacement, supporting both write-back and write-through policies.
// It is keyed by abstract 64-bit line identifiers (data block numbers,
// counter-block numbers, MAC-block numbers, or BMT node labels), so the
// same structure serves as L1/L2/LLC and as the three discrete metadata
// caches (counter cache, MAC cache, BMT cache) the paper assumes.
//
// The cache is a tag store only — payloads live with the functional
// models — and is deliberately single-threaded, matching the
// discrete-event simulator that drives it.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the write policy.
type Policy uint8

const (
	// WriteBack marks lines dirty on write and emits them on eviction.
	WriteBack Policy = iota
	// WriteThrough never holds dirty lines; every write also propagates
	// to the next level (the caller performs the propagation).
	WriteThrough
)

// Line is an abstract cache line identifier.
type Line uint64

// Way state bits, one byte per way.
const (
	valid uint8 = 1 << iota
	dirty
)

// Stats aggregates cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
	Evictions  uint64 // total evictions (clean + dirty)
	Writes     uint64
	Reads      uint64
}

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// Cache is a set-associative tag store. Way state is kept as three
// parallel arrays of sets*waysPer entries, row-major by set, so a
// lookup scans only a set's tags (an 8-way set is one 64-byte host
// line) and victim selection scans only its stamps.
//
// A way's LRU stamp carries the clock of its last use in its high
// bits and the way's own index in the low bits.Len(lines-1) bits, so
// stamps are distinct and order ways by recency, and the smallest stamp
// of a set names its LRU way outright. The clock is kept shifted into
// place: each touch adds clockStep. A cache holds at most MaxLines
// lines, so the clock keeps at least 41 bits and cannot wrap within
// 2^40 touches.
type Cache struct {
	name      string
	sets      int
	waysPer   int
	policy    Policy
	clockStep uint64   // 1<<bits.Len(lines-1): one clock tick in a stamp
	lruClock  uint64   // the newest stamp's clock bits
	tags      []Line   // line held by each way; meaningful only while valid
	lru       []uint64 // per-way use stamp; larger = more recently used
	flags     []uint8  // per-way valid/dirty bits
	nvalid    []uint32 // valid ways per set
	// last is the way touched most recently, which holds the cache's
	// newest stamp, and lastLine its line; last is -1 once that way
	// was invalidated (and after New, Reset or Restore).
	last     int
	lastLine Line

	// OnWriteback, if set, is invoked with each dirty line as it is
	// evicted (write-back policy only).
	OnWriteback func(Line)

	Stats Stats
}

// MaxLines bounds a cache's capacity in lines (512 MB of 64-byte
// lines). It keeps the LRU clock in stamps at least 41 bits wide.
const MaxLines = 1 << 23

// Config describes a cache geometry.
type Config struct {
	Name      string
	SizeBytes int // total capacity
	LineBytes int // line size (64 for all caches in the paper)
	Ways      int
	Policy    Policy
}

// New builds a cache. SizeBytes must be a multiple of LineBytes*Ways,
// and the resulting set count must be a power of two (true for every
// configuration in the paper's Table III).
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines*cfg.LineBytes != cfg.SizeBytes {
		return nil, fmt.Errorf("cache %s: size %d not a multiple of line %d", cfg.Name, cfg.SizeBytes, cfg.LineBytes)
	}
	sets := lines / cfg.Ways
	if sets*cfg.Ways != lines {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	if lines > MaxLines {
		return nil, fmt.Errorf("cache %s: %d lines exceed the %d-line bound", cfg.Name, lines, MaxLines)
	}
	return &Cache{
		name:      cfg.Name,
		sets:      sets,
		waysPer:   cfg.Ways,
		policy:    cfg.Policy,
		clockStep: 1 << bits.Len(uint(lines-1)),
		tags:      make([]Line, lines),
		lru:       make([]uint64, lines),
		flags:     make([]uint8, lines),
		nvalid:    make([]uint32, sets),
		last:      -1,
	}, nil
}

// MustNew is New but panics on configuration error; for fixed,
// test-validated geometries.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset empties the cache and zeroes its statistics, leaving it as New
// built it: every way invalid, the LRU stamps and clock at zero. Tags
// stay stale, as they do behind any invalid way. OnWriteback is left
// untouched, as Restore leaves it.
func (c *Cache) Reset() {
	clear(c.flags)
	clear(c.lru)
	clear(c.nvalid)
	c.lruClock = 0
	c.last = -1
	c.Stats = Stats{}
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.waysPer }

// Capacity returns the number of lines the cache can hold.
func (c *Cache) Capacity() int { return c.sets * c.waysPer }

func (c *Cache) setOf(l Line) int { return int(uint64(l) & uint64(c.sets-1)) }

// find returns the index of the way holding l, or -1. An invalid way
// may keep a stale tag, so a tag match counts only when the way is
// valid.
func (c *Cache) find(l Line) int {
	base := c.setOf(l) * c.waysPer
	tags := c.tags[base : base+c.waysPer]
	flags := c.flags[base : base+len(tags)]
	for i, t := range tags {
		if t == l && flags[i]&valid != 0 {
			return base + i
		}
	}
	return -1
}

// victim returns the way to fill in set: the first invalid way in
// index order if the set has one, else its LRU way, the one with the
// smallest stamp. The stamps of a full set are distinct and end in
// their way's index, so one min pass finds the way without tracking
// an index beside it.
func (c *Cache) victim(set int) int {
	base := set * c.waysPer
	if int(c.nvalid[set]) < c.waysPer {
		for i, f := range c.flags[base : base+c.waysPer] {
			if f&valid == 0 {
				return base + i
			}
		}
	}
	lru := c.lru[base : base+c.waysPer]
	oldest := lru[0]
	for _, stamp := range lru[1:] {
		oldest = min(oldest, stamp)
	}
	return int(oldest & (c.clockStep - 1))
}

// touch gives way w, which holds l, the cache's newest stamp.
func (c *Cache) touch(w int, l Line) {
	c.lruClock += c.clockStep
	c.lru[w] = c.lruClock | uint64(w)
	c.last, c.lastLine = w, l
}

// Contains reports whether l is present, without updating LRU or stats.
func (c *Cache) Contains(l Line) bool { return c.find(l) >= 0 }

// Dirty reports whether l is present and dirty.
func (c *Cache) Dirty(l Line) bool {
	w := c.find(l)
	return w >= 0 && c.flags[w]&dirty != 0
}

// Access performs a read (write=false) or write (write=true) of line l,
// filling on miss. It returns hit=true if the line was present.
// Any dirty line displaced by the fill is delivered to OnWriteback.
//
// An access to the line of the way touched last is a hit that needs
// no lookup and no stamp bump: that way already holds the cache's
// newest stamp, so bumping it would change no set's LRU order.
func (c *Cache) Access(l Line, write bool) (hit bool) {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	if w := c.last; l == c.lastLine && w >= 0 {
		c.Stats.Hits++
		if write && c.policy == WriteBack {
			c.flags[w] |= dirty
		}
		return true
	}
	if w := c.find(l); w >= 0 {
		c.Stats.Hits++
		c.touch(w, l)
		if write && c.policy == WriteBack {
			c.flags[w] |= dirty
		}
		return true
	}
	c.Stats.Misses++
	c.fill(l, write)
	return false
}

// fill inserts l, evicting as needed.
func (c *Cache) fill(l Line, write bool) {
	set := c.setOf(l)
	v := c.victim(set)
	if f := c.flags[v]; f&valid == 0 {
		c.nvalid[set]++
	} else {
		c.Stats.Evictions++
		if f&dirty != 0 {
			c.Stats.Writebacks++
			if c.OnWriteback != nil {
				c.OnWriteback(c.tags[v])
			}
		}
	}
	f := valid
	if write && c.policy == WriteBack {
		f |= dirty
	}
	c.tags[v], c.flags[v] = l, f
	c.touch(v, l)
}

// Insert fills l without counting an access (e.g. prefetch or fill
// from a verification path).
func (c *Cache) Insert(l Line) {
	if w := c.find(l); w >= 0 {
		c.touch(w, l)
		return
	}
	c.fill(l, false)
}

// WritebackFill receives a dirty line evicted from the level above in
// a cache hierarchy: the line becomes (or stays) resident here and is
// marked dirty, without counting as a demand access. Displaced dirty
// victims flow to OnWriteback as usual.
func (c *Cache) WritebackFill(l Line) {
	if c.policy != WriteBack {
		// A write-through level propagates immediately; the caller's
		// OnWriteback wiring handles the next level.
		if c.OnWriteback != nil {
			c.OnWriteback(l)
		}
		return
	}
	if w := c.find(l); w >= 0 {
		c.touch(w, l)
		c.flags[w] |= dirty
		return
	}
	c.fill(l, true)
}

// CleanLine clears l's dirty bit if present (e.g. after an explicit
// flush persisted it).
func (c *Cache) CleanLine(l Line) {
	if w := c.find(l); w >= 0 {
		c.flags[w] &^= dirty
	}
}

// Invalidate removes l, returning whether it was present and dirty.
// The dirty line is NOT delivered to OnWriteback; the caller decides.
func (c *Cache) Invalidate(l Line) (wasDirty bool) {
	if w := c.find(l); w >= 0 {
		wasDirty = c.flags[w]&dirty != 0
		c.flags[w] = 0
		c.nvalid[c.setOf(l)]--
		if w == c.last {
			c.last = -1
		}
	}
	return wasDirty
}

// FlushAll evicts every line, delivering dirty ones to OnWriteback.
// Used to drain write-back caches at epoch or simulation end.
func (c *Cache) FlushAll() {
	for i, f := range c.flags {
		if f&valid != 0 {
			c.Stats.Evictions++
			if f&dirty != 0 {
				c.Stats.Writebacks++
				if c.OnWriteback != nil {
					c.OnWriteback(c.tags[i])
				}
			}
			c.flags[i] = 0
		}
	}
	clear(c.nvalid)
	c.last = -1
}

// DirtyLines returns all dirty lines currently resident (in no
// particular order). Used by crash simulation: these are exactly the
// updates that will be lost.
func (c *Cache) DirtyLines() []Line {
	var out []Line
	for i, f := range c.flags {
		if f == valid|dirty {
			out = append(out, c.tags[i])
		}
	}
	return out
}

// ResidentLines returns all valid lines (for tests and debugging).
func (c *Cache) ResidentLines() []Line {
	var out []Line
	for i, f := range c.flags {
		if f&valid != 0 {
			out = append(out, c.tags[i])
		}
	}
	return out
}
