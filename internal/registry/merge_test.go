package registry

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"plp/internal/stats"
)

// shardRun fabricates a distinguishable run for merge tests.
func shardRun(scheme, bench string, cycles, wallNS uint64) Run {
	return Run{
		Scheme:       scheme,
		Bench:        bench,
		Instructions: 1000,
		Cycles:       cycles,
		IPC:          float64(1000) / float64(cycles),
		Persists:     cycles / 10,
		WallNS:       wallNS,
		StoresPerSec: float64(wallNS) / 7,
		Attribution:  map[string]uint64{"core": cycles},
		PersistLatency: stats.Summary{
			Count: 1, Mean: float64(cycles), P50: cycles,
		},
	}
}

// shard wraps runs as the one-run files the fabric workers return.
func shard(tag string, runs ...Run) *File {
	return &File{
		Version:      Version,
		Tag:          tag,
		Instructions: 1000,
		Warmup:       50,
		Runs:         runs,
	}
}

func mergeTemplate() *File {
	return &File{
		Version:      Version,
		Tag:          "job-test",
		CreatedAt:    "2026-01-01T00:00:00Z",
		Fingerprint:  CurrentFingerprint(),
		Instructions: 1000,
		Warmup:       50,
	}
}

// TestMergeShardsOrderIndependent merges the same shard set in many
// shuffled orders — with duplicate late results injected — and demands
// byte-identical JobResult JSON every time.
func TestMergeShardsOrderIndependent(t *testing.T) {
	base := []*File{
		shard("shard-0", shardRun("sp", "astar", 4000, 111)),
		shard("shard-1", shardRun("sp", "gcc", 5000, 222)),
		shard("shard-2", shardRun("secure_WB", "astar", 6000, 333)),
		shard("shard-3", shardRun("secure_WB", "gcc", 7000, 444)),
		// Late duplicates: same simulation bits, different wall clock —
		// what a resurrected worker re-submits after its unit was stolen.
		shard("shard-0-dup", shardRun("sp", "astar", 4000, 999)),
		shard("shard-3-dup", shardRun("secure_WB", "gcc", 7000, 1)),
	}

	var want []byte
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 32; trial++ {
		shards := append([]*File(nil), base...)
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		merged, err := MergeShards(mergeTemplate(), shards)
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		got, err := MarshalJobResult(&JobResult{Sweep: merged})
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: merged JobResult bytes differ from trial 0:\n%s\nvs\n%s", trial, got, want)
		}
	}

	// The deterministic duplicate rule keeps the smallest wall clock.
	merged, _ := MergeShards(mergeTemplate(), base)
	if r := merged.Find("sp", "astar"); r == nil || r.WallNS != 111 {
		t.Fatalf("sp/astar duplicate should keep WallNS 111, got %+v", r)
	}
	if r := merged.Find("secure_WB", "gcc"); r == nil || r.WallNS != 1 {
		t.Fatalf("secure_WB/gcc duplicate should keep WallNS 1, got %+v", r)
	}
	if len(merged.Runs) != 4 {
		t.Fatalf("want 4 merged runs, got %d", len(merged.Runs))
	}
}

// TestMergeShardsConflictingDuplicate rejects duplicates whose
// simulation bits disagree — that is a determinism bug, never noise.
func TestMergeShardsConflictingDuplicate(t *testing.T) {
	_, err := MergeShards(mergeTemplate(), []*File{
		shard("a", shardRun("sp", "astar", 4000, 1)),
		shard("b", shardRun("sp", "astar", 4001, 2)),
	})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("want disagree error, got %v", err)
	}
}

// TestMergeShardsCompat gates on the sweep-wide parameters every shard
// must share.
func TestMergeShardsCompat(t *testing.T) {
	tests := []struct {
		name string
		warp func(*File)
		want string
	}{
		{"instructions", func(f *File) { f.Instructions = 999 }, "instructions"},
		{"warmup", func(f *File) { f.Warmup = 0 }, "warmup"},
		{"fullMemory", func(f *File) { f.FullMemory = true }, "full-memory"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			bad := shard("bad", shardRun("sp", "astar", 4000, 1))
			tc.warp(bad)
			_, err := MergeShards(mergeTemplate(), []*File{bad})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
}

// TestMergeShardsMemoAggregation sums shard memo counters
// order-independently and drops the per-machine wall fields.
func TestMergeShardsMemoAggregation(t *testing.T) {
	a := shard("a", shardRun("sp", "astar", 4000, 1))
	a.Memo = &MemoInfo{Passes: 1, Hits: 3, Misses: 1, CheckpointMisses: 2, ColdWallNS: 500}
	b := shard("b", shardRun("sp", "gcc", 5000, 2))
	b.Memo = &MemoInfo{Passes: 2, Hits: 1, Misses: 3, CheckpointHits: 4, WarmWallNS: 700}

	for _, order := range [][]*File{{a, b}, {b, a}} {
		merged, err := MergeShards(mergeTemplate(), order)
		if err != nil {
			t.Fatal(err)
		}
		m := merged.Memo
		if m == nil {
			t.Fatal("merged file lost memo info")
		}
		if m.Passes != 2 || m.Hits != 4 || m.Misses != 4 || m.CheckpointMisses != 2 || m.CheckpointHits != 4 {
			t.Fatalf("bad memo aggregation: %+v", m)
		}
		if m.HitRate != 0.5 {
			t.Fatalf("hit rate = %v, want 0.5", m.HitRate)
		}
		if m.ColdWallNS != 0 || m.WarmWallNS != 0 || m.Speedup != 0 {
			t.Fatalf("wall fields should be dropped: %+v", m)
		}
	}
}

// TestMergeShardsDoesNotMutateInputs guards the coordinator's reuse of
// the template and shard files.
func TestMergeShardsDoesNotMutateInputs(t *testing.T) {
	template := mergeTemplate()
	sh := shard("s", shardRun("sp", "gcc", 5000, 2), shardRun("sp", "astar", 4000, 1))
	if _, err := MergeShards(template, []*File{sh}); err != nil {
		t.Fatal(err)
	}
	if len(template.Runs) != 0 {
		t.Fatalf("template mutated: %d runs", len(template.Runs))
	}
	if sh.Runs[0].Key() != "sp/gcc" {
		t.Fatalf("shard run order mutated: %s", sh.Runs[0].Key())
	}
}
