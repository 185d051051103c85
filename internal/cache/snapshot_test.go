package cache

import (
	"reflect"
	"testing"
)

func snapCache(t *testing.T) *Cache {
	t.Helper()
	return MustNew(Config{Name: "t", SizeBytes: 4096, LineBytes: 64, Ways: 4, Policy: WriteBack})
}

// TestSnapshotRestoreReplay pins the checkpoint contract: restore a
// snapshot and replay the same access stream, and every hit/miss,
// eviction, writeback, and final stats counter matches the original
// continuation exactly.
func TestSnapshotRestoreReplay(t *testing.T) {
	access := func(c *Cache, seed Line, n int) []bool {
		out := make([]bool, 0, n)
		for i := 0; i < n; i++ {
			l := Line((uint64(seed) + uint64(i)*2654435761) % 97)
			out = append(out, c.Access(l, i%3 == 0))
		}
		return out
	}

	c := snapCache(t)
	access(c, 7, 200)
	snap := c.Snapshot()

	wantHits := access(c, 13, 300)
	wantStats := c.Stats
	wantResident := c.ResidentLines()

	if err := c.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	gotHits := access(c, 13, 300)
	if !reflect.DeepEqual(wantHits, gotHits) {
		t.Fatal("replayed access stream diverged after restore")
	}
	if c.Stats != wantStats {
		t.Fatalf("stats diverged: %+v vs %+v", c.Stats, wantStats)
	}
	if !reflect.DeepEqual(c.ResidentLines(), wantResident) {
		t.Fatal("resident lines diverged after restore+replay")
	}
}

// TestSnapshotIsDeep: mutating the cache after Snapshot must not
// change the snapshot, and one snapshot restores repeatedly.
func TestSnapshotIsDeep(t *testing.T) {
	c := snapCache(t)
	c.Access(1, true)
	snap := c.Snapshot()
	for i := 0; i < 500; i++ {
		c.Access(Line(i), true)
	}
	for round := 0; round < 2; round++ {
		if err := c.Restore(snap); err != nil {
			t.Fatalf("restore %d: %v", round, err)
		}
		if !c.Dirty(1) {
			t.Fatalf("restore %d lost the dirty line", round)
		}
		if got := c.Stats.Writes; got != 1 {
			t.Fatalf("restore %d: writes = %d, want 1", round, got)
		}
	}
}

// TestRestoreRejectsGeometryMismatch: a snapshot only fits a cache of
// the same shape.
func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	snap := snapCache(t).Snapshot()
	other := MustNew(Config{Name: "o", SizeBytes: 8192, LineBytes: 64, Ways: 4, Policy: WriteBack})
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore across geometries must fail")
	}
	wt := MustNew(Config{Name: "wt", SizeBytes: 4096, LineBytes: 64, Ways: 4, Policy: WriteThrough})
	if err := wt.Restore(snap); err == nil {
		t.Fatal("restore across policies must fail")
	}
	// 64 ways of an 8-byte tag, an 8-byte stamp and a flag byte, 16
	// sets of a 4-byte valid count, plus the header allowance.
	if got, want := snap.Bytes(), uint64(64*17+16*4+128); got != want {
		t.Fatalf("snapshot footprint %d bytes, want %d", got, want)
	}
}
