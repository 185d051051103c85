package cache

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"plp/internal/xrand"
)

// refCache is the earlier array-of-structs tag store, kept verbatim as
// the reference the struct-of-arrays Cache must match call for call.
type refCache struct {
	sets, waysPer int
	policy        Policy
	lruClock      uint64
	data          []refWay
	OnWriteback   func(Line)
	Stats         Stats
}

type refWay struct {
	tag   Line
	valid bool
	dirty bool
	lru   uint64
}

func newRef(sets, ways int, policy Policy) *refCache {
	return &refCache{sets: sets, waysPer: ways, policy: policy, data: make([]refWay, sets*ways)}
}

func (c *refCache) setOf(l Line) int { return int(uint64(l) & uint64(c.sets-1)) }

func (c *refCache) find(l Line) *refWay {
	base := c.setOf(l) * c.waysPer
	for i := 0; i < c.waysPer; i++ {
		w := &c.data[base+i]
		if w.valid && w.tag == l {
			return w
		}
	}
	return nil
}

func (c *refCache) victim(l Line) *refWay {
	base := c.setOf(l) * c.waysPer
	var v *refWay
	for i := 0; i < c.waysPer; i++ {
		w := &c.data[base+i]
		if !w.valid {
			return w
		}
		if v == nil || w.lru < v.lru {
			v = w
		}
	}
	return v
}

func (c *refCache) touch(w *refWay) {
	c.lruClock++
	w.lru = c.lruClock
}

func (c *refCache) Contains(l Line) bool { return c.find(l) != nil }

func (c *refCache) Dirty(l Line) bool {
	w := c.find(l)
	return w != nil && w.dirty
}

func (c *refCache) Access(l Line, write bool) (hit bool) {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	if w := c.find(l); w != nil {
		c.Stats.Hits++
		c.touch(w)
		if write && c.policy == WriteBack {
			w.dirty = true
		}
		return true
	}
	c.Stats.Misses++
	c.fill(l, write)
	return false
}

func (c *refCache) fill(l Line, write bool) {
	v := c.victim(l)
	if v.valid {
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
			if c.OnWriteback != nil {
				c.OnWriteback(v.tag)
			}
		}
	}
	v.valid = true
	v.tag = l
	v.dirty = write && c.policy == WriteBack
	c.touch(v)
}

func (c *refCache) Insert(l Line) {
	if w := c.find(l); w != nil {
		c.touch(w)
		return
	}
	c.fill(l, false)
}

func (c *refCache) WritebackFill(l Line) {
	if c.policy != WriteBack {
		if c.OnWriteback != nil {
			c.OnWriteback(l)
		}
		return
	}
	if w := c.find(l); w != nil {
		c.touch(w)
		w.dirty = true
		return
	}
	c.fill(l, true)
}

func (c *refCache) CleanLine(l Line) {
	if w := c.find(l); w != nil {
		w.dirty = false
	}
}

func (c *refCache) Invalidate(l Line) (wasDirty bool) {
	if w := c.find(l); w != nil {
		wasDirty = w.dirty
		w.valid = false
		w.dirty = false
	}
	return wasDirty
}

func (c *refCache) FlushAll() {
	for i := range c.data {
		w := &c.data[i]
		if w.valid {
			c.Stats.Evictions++
			if w.dirty {
				c.Stats.Writebacks++
				if c.OnWriteback != nil {
					c.OnWriteback(w.tag)
				}
			}
			w.valid = false
			w.dirty = false
		}
	}
}

func (c *refCache) DirtyLines() []Line {
	var out []Line
	for i := range c.data {
		if c.data[i].valid && c.data[i].dirty {
			out = append(out, c.data[i].tag)
		}
	}
	return out
}

func (c *refCache) ResidentLines() []Line {
	var out []Line
	for i := range c.data {
		if c.data[i].valid {
			out = append(out, c.data[i].tag)
		}
	}
	return out
}

// refSnapshot is the reference's deep copy of its mutable state.
type refSnapshot struct {
	lruClock uint64
	data     []refWay
	stats    Stats
}

func (c *refCache) Snapshot() *refSnapshot {
	return &refSnapshot{lruClock: c.lruClock, data: append([]refWay(nil), c.data...), stats: c.Stats}
}

func (c *refCache) Restore(s *refSnapshot) {
	copy(c.data, s.data)
	c.lruClock = s.lruClock
	c.Stats = s.stats
}

// TestCacheMatchesReference drives the Cache and the array-of-structs
// reference with one seeded random mix of every state-changing call,
// snapshots, restores and resets included, over direct-mapped, 3- to
// 32-way and fully associative geometries under both policies; the 3-,
// 12- and 20-way sets are there because a victim rule that assumes a
// power-of-two way count passes every other geometry. A reset is
// checked against a freshly built reference, since the engine's run
// arenas reset a cache instead of building a new one. After every call
// the return values, the OnWriteback sequence, Stats, and the dirty and
// resident lines (in way order, which pins the placement the victim
// rule chose) must agree.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{16, 1}, {16, 3}, {16, 4}, {16, 8}, {8, 12}, {8, 16}, {4, 20}, {4, 32}, {1, 64}}
	for _, geo := range geoms {
		for _, policy := range []Policy{WriteBack, WriteThrough} {
			t.Run(fmt.Sprintf("%dx%d/policy%d", geo.sets, geo.ways, policy), func(t *testing.T) {
				t.Parallel()
				checkAgainstReference(t, geo.sets, geo.ways, policy, uint64(geo.sets*geo.ways)+uint64(policy))
			})
		}
	}
}

func checkAgainstReference(t *testing.T, sets, ways int, policy Policy, seed uint64) {
	c := MustNew(Config{Name: "soa", SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Policy: policy})
	ref := newRef(sets, ways, policy)
	var got, want []Line
	c.OnWriteback = func(l Line) { got = append(got, l) }
	ref.OnWriteback = func(l Line) { want = append(want, l) }

	r := xrand.New(seed)
	// Lines span three times the capacity, in two far-apart ranges,
	// so sets see hits, conflicts and stale tags alike. A fifth of the
	// calls repeat the previous call's line, which is what the cache's
	// repeat-hit path serves.
	span := 3 * sets * ways
	var snap *Snapshot
	var refSnap *refSnapshot
	var l Line
	for step := 0; step < 40_000; step++ {
		if !r.Bool(0.2) {
			l = Line(r.Intn(span))
			if r.Bool(0.25) {
				l += 1 << 40
			}
		}
		var call string
		var g, w any
		switch x := r.Intn(1000); {
		case x < 350:
			call, g, w = "read", c.Access(l, false), ref.Access(l, false)
		case x < 600:
			call, g, w = "write", c.Access(l, true), ref.Access(l, true)
		case x < 700:
			call = "Insert"
			c.Insert(l)
			ref.Insert(l)
		case x < 800:
			call = "WritebackFill"
			c.WritebackFill(l)
			ref.WritebackFill(l)
		case x < 860:
			call = "CleanLine"
			c.CleanLine(l)
			ref.CleanLine(l)
		case x < 940:
			call, g, w = "Invalidate", c.Invalidate(l), ref.Invalidate(l)
		case x < 942:
			call = "FlushAll"
			c.FlushAll()
			ref.FlushAll()
		case x < 945:
			// The reset cache keeps its OnWriteback wiring; the fresh
			// reference gets the same one.
			call = "Reset"
			c.Reset()
			onWB := ref.OnWriteback
			ref = newRef(sets, ways, policy)
			ref.OnWriteback = onWB
		case x < 970:
			call = "Snapshot"
			snap, refSnap = c.Snapshot(), ref.Snapshot()
		default:
			call = "Restore"
			if snap != nil {
				if err := c.Restore(snap); err != nil {
					t.Fatal(err)
				}
				ref.Restore(refSnap)
			}
		}
		if g != w {
			t.Fatalf("step %d %s(%d): got %v, reference %v", step, call, l, g, w)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s(%d): writebacks %v, reference %v", step, call, l, got, want)
		}
		got, want = got[:0], want[:0]
		if c.Stats != ref.Stats {
			t.Fatalf("step %d %s(%d): stats %+v, reference %+v", step, call, l, c.Stats, ref.Stats)
		}
		if c.Contains(l) != ref.Contains(l) || c.Dirty(l) != ref.Dirty(l) {
			t.Fatalf("step %d %s(%d): Contains/Dirty disagree with the reference", step, call, l)
		}
		if !reflect.DeepEqual(c.DirtyLines(), ref.DirtyLines()) {
			t.Fatalf("step %d %s(%d): dirty lines %v, reference %v", step, call, l, c.DirtyLines(), ref.DirtyLines())
		}
		if !reflect.DeepEqual(c.ResidentLines(), ref.ResidentLines()) {
			t.Fatalf("step %d %s(%d): resident lines %v, reference %v", step, call, l, c.ResidentLines(), ref.ResidentLines())
		}
	}
}

// TestStampsOutlast2To40Touches pins the stamp encoding's bound. New
// rejects a cache of more than MaxLines lines, so a way field is at
// most bits.Len(MaxLines-1) bits wide. With a field that wide and the
// clock started just short of 2^40 touches, a 12-way cache must still
// match the reference past the 2^40th touch; a field one bit wider
// would carry that touch's stamp out of 64 bits and scramble LRU order.
func TestStampsOutlast2To40Touches(t *testing.T) {
	if _, err := New(Config{Name: "huge", SizeBytes: 2 * MaxLines * 64, LineBytes: 64, Ways: 2}); err == nil {
		t.Fatalf("New accepted %d lines, beyond MaxLines", 2*MaxLines)
	}
	const sets, ways = 8, 12
	c := MustNew(Config{Name: "wide", SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Policy: WriteBack})
	ref := newRef(sets, ways, WriteBack)
	c.clockStep = 1 << bits.Len(MaxLines-1)
	c.lruClock = (1<<40 - 2000) * c.clockStep
	r := xrand.New(40)
	for step := 0; step < 8000; step++ {
		l, write := Line(r.Intn(3*sets*ways)), r.Bool(0.3)
		if g, w := c.Access(l, write), ref.Access(l, write); g != w {
			t.Fatalf("step %d (clock %d): Access(%d) = %v, reference %v", step, c.lruClock/c.clockStep, l, g, w)
		}
	}
	if c.lruClock/c.clockStep <= 1<<40 {
		t.Fatalf("the clock stopped at %d, short of 2^40", c.lruClock/c.clockStep)
	}
	if c.Stats != ref.Stats || !reflect.DeepEqual(c.ResidentLines(), ref.ResidentLines()) || !reflect.DeepEqual(c.DirtyLines(), ref.DirtyLines()) {
		t.Fatal("past 2^40 touches the cache's contents differ from the reference")
	}
}
