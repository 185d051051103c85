package hier

import (
	"fmt"
	"reflect"
	"testing"

	"plp/internal/cache"
	"plp/internal/xrand"
)

// refAccess is the earlier Access, kept as the reference: after a hit
// at some depth it re-inserts the line into every level above.
func refAccess(h *Hierarchy, l cache.Line, write bool) int {
	for depth, c := range h.levels {
		if c.Access(l, write && depth == 0) {
			for up := depth - 1; up >= 0; up-- {
				h.levels[up].Insert(l)
			}
			return depth
		}
	}
	h.MemReads++
	return len(h.levels)
}

// TestAccessMatchesReference drives two identical hierarchies with one
// seeded access stream, one through Access and one through the
// re-inserting reference, and requires the same hit depth, MemReads,
// OnMemWriteback sequence and per-level Stats after every access, and
// the same resident and dirty lines per level at the end. The stream
// mixes an L1-sized hot set, an L2-sized warm set and a cold range far
// beyond the LLC, so hits land at every depth and dirty lines cascade
// to memory. Halfway through, the hierarchy is reset and the reference
// replaced by a freshly built one: a reset hierarchy, as the engine's
// run arenas reuse it, must behave like a new one. The LLCs include a
// 20-way one, whose way count is not a power of two.
func TestAccessMatchesReference(t *testing.T) {
	for _, llc := range []struct{ kb, ways int }{{4096, 32}, {256, 16}, {2560, 20}} {
		t.Run(fmt.Sprintf("llc%dKB", llc.kb), func(t *testing.T) {
			t.Parallel()
			h, ref := Default(llc.kb, llc.ways), Default(llc.kb, llc.ways)
			var got, want []cache.Line
			h.OnMemWriteback = func(l cache.Line) { got = append(got, l) }
			ref.OnMemWriteback = func(l cache.Line) { want = append(want, l) }
			r := xrand.New(uint64(llc.kb))
			depths := make([]int, len(h.levels)+1)
			memWritebacks := 0
			for i := 0; i < 400_000; i++ {
				if i == 200_000 {
					h.Reset()
					if h.OnMemWriteback != nil || h.MemReads != 0 {
						t.Fatal("Reset kept OnMemWriteback or MemReads")
					}
					ref = Default(llc.kb, llc.ways)
					h.OnMemWriteback = func(l cache.Line) { got = append(got, l) }
					ref.OnMemWriteback = func(l cache.Line) { want = append(want, l) }
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
				write := r.Bool(0.3)
				d, w := h.Access(l, write), refAccess(ref, l, write)
				if d != w {
					t.Fatalf("access %d (line %d): depth %d, reference %d", i, l, d, w)
				}
				depths[d]++
				if h.MemReads != ref.MemReads || !reflect.DeepEqual(got, want) {
					t.Fatalf("access %d (line %d): MemReads %d writebacks %v, reference %d %v",
						i, l, h.MemReads, got, ref.MemReads, want)
				}
				memWritebacks += len(got)
				got, want = got[:0], want[:0]
				for k, c := range h.levels {
					if c.Stats != ref.levels[k].Stats {
						t.Fatalf("access %d level %d: stats %+v, reference %+v", i, k, c.Stats, ref.levels[k].Stats)
					}
				}
			}
			for d, n := range depths {
				if n == 0 {
					t.Fatalf("no access resolved at depth %d: %v", d, depths)
				}
			}
			if memWritebacks == 0 {
				t.Fatal("the stream never wrote a dirty line back to memory")
			}
			t.Logf("depths %v, %d memory writebacks", depths, memWritebacks)
			for k, c := range h.levels {
				rc := ref.levels[k]
				if !reflect.DeepEqual(c.ResidentLines(), rc.ResidentLines()) || !reflect.DeepEqual(c.DirtyLines(), rc.DirtyLines()) {
					t.Fatalf("level %d: resident or dirty lines differ from the reference", k)
				}
			}
		})
	}
}
