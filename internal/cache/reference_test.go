package cache

import (
	"fmt"
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
// snapshots and restores included, over direct-mapped, 4- to 32-way
// and fully associative geometries under both policies. After every
// call the return values, the OnWriteback sequence, Stats, and the
// dirty and resident lines (in way order, which pins the placement
// the victim rule chose) must agree.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{16, 1}, {16, 4}, {16, 8}, {8, 16}, {4, 32}, {1, 64}}
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
	// so sets see hits, conflicts and stale tags alike.
	span := 3 * sets * ways
	var snap *Snapshot
	var refSnap *refSnapshot
	for step := 0; step < 40_000; step++ {
		l := Line(r.Intn(span))
		if r.Bool(0.25) {
			l += 1 << 40
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
		case x < 945:
			call = "FlushAll"
			c.FlushAll()
			ref.FlushAll()
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
