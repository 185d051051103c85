package registry

import (
	"fmt"
	"reflect"
	"sort"
)

// MergeShards combines per-unit shard files (as produced by the
// distributed sweep fabric — each typically holding one run) into the
// template file, which carries the sweep's identity (tag, instructions,
// warm-up, memory mode). The merge is deterministic: the same shard
// set produces byte-identical output regardless of shard order, and a
// duplicate shard for a run key (a late result from a resurrected or
// out-raced worker) is discarded after checking that its simulation
// fields are bit-equal to the committed one — only the wall-clock
// fields may differ between duplicates, and the survivor is chosen by
// a deterministic rule (smallest WallNS) rather than arrival order.
//
// Every shard must agree with the template on Instructions, Warmup and
// FullMemory: cycle counts are only comparable between runs of the
// same length, so a shard recorded under different parameters is a
// hard error, not something to paper over.
func MergeShards(template *File, shards []*File) (*File, error) {
	out := *template
	out.Runs = append([]Run(nil), template.Runs...)

	byKey := make(map[string]int, len(shards)) // run key -> index in out.Runs
	for i := range out.Runs {
		byKey[out.Runs[i].Key()] = i
	}

	var memo *MemoInfo
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		if sh.Instructions != template.Instructions {
			return nil, fmt.Errorf("registry: shard %q instructions %d != sweep %d",
				sh.Tag, sh.Instructions, template.Instructions)
		}
		if sh.Warmup != template.Warmup {
			return nil, fmt.Errorf("registry: shard %q warmup %d != sweep %d",
				sh.Tag, sh.Warmup, template.Warmup)
		}
		if sh.FullMemory != template.FullMemory {
			return nil, fmt.Errorf("registry: shard %q full-memory mode differs from sweep", sh.Tag)
		}
		memo = accumulateMemo(memo, sh.Memo)
		for _, r := range sh.Runs {
			idx, dup := byKey[r.Key()]
			if !dup {
				byKey[r.Key()] = len(out.Runs)
				out.Runs = append(out.Runs, r)
				continue
			}
			have := out.Runs[idx]
			if !runsEqualIgnoringWall(have, r) {
				return nil, fmt.Errorf("registry: duplicate shards for %s disagree: cycles %d vs %d",
					r.Key(), have.Cycles, r.Cycles)
			}
			// Bit-equal duplicate: keep the deterministically chosen wall
			// clock (smallest WallNS, ties by smallest StoresPerSec) so the
			// merged bytes do not depend on commit order.
			if r.WallNS < have.WallNS ||
				(r.WallNS == have.WallNS && r.StoresPerSec < have.StoresPerSec) {
				out.Runs[idx] = r
			}
		}
	}
	if memo != nil {
		out.Memo = memo
	}
	out.Sort()
	return &out, nil
}

// runsEqualIgnoringWall reports whether two runs carry identical
// simulation results, exempting only the machine-dependent wall-clock
// fields — the same exemption Identical applies.
func runsEqualIgnoringWall(a, b Run) bool {
	a.WallNS, a.StoresPerSec = 0, 0
	b.WallNS, b.StoresPerSec = 0, 0
	return reflect.DeepEqual(a, b)
}

// accumulateMemo folds one shard's memo counters into the aggregate.
// Counters sum; Passes takes the maximum (each shard ran the same
// logical sweep pass); the wall-time pair is dropped — per-shard cold
// and warm times ran on different machines, so a sum would imply a
// precision the numbers do not have. HitRate is recomputed from the
// summed counters so the result is independent of accumulation order.
func accumulateMemo(acc, m *MemoInfo) *MemoInfo {
	if m == nil {
		return acc
	}
	if acc == nil {
		acc = &MemoInfo{}
	}
	if m.Passes > acc.Passes {
		acc.Passes = m.Passes
	}
	acc.Hits += m.Hits
	acc.Misses += m.Misses
	acc.CheckpointHits += m.CheckpointHits
	acc.CheckpointMisses += m.CheckpointMisses
	if total := acc.Hits + acc.Misses; total > 0 {
		acc.HitRate = float64(acc.Hits) / float64(total)
	}
	acc.ColdWallNS, acc.WarmWallNS, acc.Speedup = 0, 0, 0
	return acc
}

// SortShards orders a shard list by each shard's first run key — a
// convenience for tests that need a canonical order to compare against
// shuffled merges.
func SortShards(shards []*File) {
	sort.SliceStable(shards, func(i, j int) bool {
		ki, kj := "", ""
		if len(shards[i].Runs) > 0 {
			ki = shards[i].Runs[0].Key()
		}
		if len(shards[j].Runs) > 0 {
			kj = shards[j].Runs[0].Key()
		}
		return ki < kj
	})
}
