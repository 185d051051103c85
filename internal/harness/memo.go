package harness

import (
	"sync"

	"plp/internal/engine"
	"plp/internal/sim"
	"plp/internal/telemetry"
	"plp/internal/trace"
)

// MemoKey identifies one simulation result up to semantic equivalence:
// the trace identity, the config's Key (every field but the hooks,
// normalized, so filled defaults and explicit values collide exactly
// when the engine would behave identically), and the telemetry shape
// (a sampled run carries a Series a headline-only run does not).
type MemoKey struct {
	Bench string
	Seed  uint64
	Cfg   engine.Config
	// Sampled/Interval describe the memoized run's telemetry series
	// (sim.Cycle is unsigned, so a plain Interval can't encode
	// "unsampled" — the bool carries that).
	Sampled  bool
	Interval sim.Cycle
}

// memoKeyOf builds cfg's memo key, or ok=false when the run is not
// memoizable: an observer has side effects (an event stream, a crash
// log, an externally owned sampler) that a cache hit would silently
// skip. Cancel is fine — the runner just never stores a cancelled run.
func memoKeyOf(cfg engine.Config, bench string, seed uint64) (MemoKey, bool) {
	if cfg.Observer != nil {
		return MemoKey{}, false
	}
	return MemoKey{Bench: bench, Seed: seed, Cfg: cfg.Key()}, true
}

// MemoStats is a snapshot of a Memo's traffic and occupancy.
type MemoStats struct {
	Hits      uint64 // runs served from a stored result
	Misses    uint64 // runs that executed (or re-executed after a cancel)
	Evictions uint64 // result entries dropped by the byte bound
	Cancelled uint64 // executions whose results were discarded (cancelled)

	CheckpointHits      uint64 // resumes served from a stored checkpoint
	CheckpointMisses    uint64 // checkpoints built
	CheckpointEvictions uint64

	Bytes   uint64 // resident result + checkpoint bytes
	Entries int    // resident result entries
	Ckpts   int    // resident checkpoints
}

// HitRate returns Hits/(Hits+Misses), or 0 for an untouched memo.
func (s MemoStats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// DefaultMemoBytes bounds a Memo constructed with max 0 (512 MB).
const DefaultMemoBytes = 512 << 20

type memoEntry struct {
	once    sync.Once
	res     engine.Result
	series  *telemetry.Series
	ok      bool // stored (executed to completion, not cancelled)
	bytes   uint64
	lastUse uint64
}

type ckptEntry struct {
	once    sync.Once
	ck      *engine.Checkpoint
	err     error
	bytes   uint64
	lastUse uint64
}

// Memo caches finished simulation results and warm-up checkpoints
// across the runs of a sweep (or across whole sweeps, when callers
// share one Memo). Concurrent first requesters of a key share a single
// execution; results are immutable once stored; total resident bytes
// are bounded with LRU eviction (checkpoints are evicted only after
// every result entry, since one checkpoint accelerates many runs).
// Safe for concurrent use. Memoized results are bit-identical to cold
// runs — pinned by the equivalence tests — because the engine itself
// is deterministic per key.
type Memo struct {
	mu      sync.Mutex
	max     uint64
	clock   uint64
	entries map[MemoKey]*memoEntry
	ckpts   map[engine.CheckpointKey]*ckptEntry
	bytes   uint64
	stats   MemoStats
}

// NewMemo builds a result/checkpoint memo bounded to maxBytes
// (0 = DefaultMemoBytes).
func NewMemo(maxBytes uint64) *Memo {
	if maxBytes == 0 {
		maxBytes = DefaultMemoBytes
	}
	return &Memo{
		max:     maxBytes,
		entries: make(map[MemoKey]*memoEntry),
		ckpts:   make(map[engine.CheckpointKey]*ckptEntry),
	}
}

// entryBytes approximates a stored entry's footprint: the Result's
// fixed-size histograms plus the telemetry windows.
func entryBytes(e *memoEntry) uint64 {
	n := uint64(2048) // Result: three 48-bucket histograms + scalars
	if e.series != nil {
		n += uint64(len(e.series.Windows)) * 256
		for _, w := range e.series.Windows {
			n += uint64(len(w.Stalls)) * 8
		}
	}
	return n
}

// Run returns the memoized result for key, executing exec exactly once
// per key across concurrent callers. exec reports ok=false when its
// result must not be cached (the run was cancelled); the entry is then
// dropped so a later request re-executes, and concurrent waiters fall
// back to executing privately. hit reports whether the returned result
// came from the cache rather than this call's own execution.
func (m *Memo) Run(key MemoKey, exec func() (engine.Result, *telemetry.Series, bool)) (res engine.Result, series *telemetry.Series, hit bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry{}
		m.entries[key] = e
	}
	m.clock++
	e.lastUse = m.clock
	m.mu.Unlock()

	first := false
	e.once.Do(func() {
		first = true
		e.res, e.series, e.ok = exec()
		m.mu.Lock()
		if e.ok {
			e.bytes = entryBytes(e)
			m.bytes += e.bytes
			m.evictLocked(e)
		} else {
			m.stats.Cancelled++
			if m.entries[key] == e {
				delete(m.entries, key)
			}
		}
		m.mu.Unlock()
	})

	if first || !e.ok {
		m.mu.Lock()
		m.stats.Misses++
		m.mu.Unlock()
	}
	if first {
		return e.res, e.series, false
	}
	if !e.ok {
		// The stored execution was cancelled; run privately, unmemoized.
		res, series, _ = exec()
		return res, series, false
	}
	m.mu.Lock()
	m.stats.Hits++
	m.mu.Unlock()
	return e.res, e.series, true
}

// Checkpoint returns the warm-up checkpoint for (cfg, bench, seed),
// building it at most once per key across concurrent callers. mkSrc
// supplies the op source to warm from (the runner's trace.Store
// replay).
func (m *Memo) Checkpoint(cfg engine.Config, bench string, seed uint64, ipc float64, mkSrc func() trace.Source) (*engine.Checkpoint, error) {
	key := engine.CheckpointKeyFor(cfg, bench, seed)
	m.mu.Lock()
	e, ok := m.ckpts[key]
	if ok {
		m.stats.CheckpointHits++
	} else {
		m.stats.CheckpointMisses++
		e = &ckptEntry{}
		m.ckpts[key] = e
	}
	m.clock++
	e.lastUse = m.clock
	m.mu.Unlock()
	e.once.Do(func() {
		e.ck, e.err = engine.NewCheckpointSource(cfg, bench, seed, ipc, mkSrc())
		m.mu.Lock()
		if e.err != nil {
			if m.ckpts[key] == e {
				delete(m.ckpts, key)
			}
		} else {
			e.bytes = e.ck.Bytes()
			m.bytes += e.bytes
			m.evictLocked(nil)
		}
		m.mu.Unlock()
	})
	return e.ck, e.err
}

// evictLocked drops least-recently-used stored entries until bytes fit
// the bound: result entries first, then (only when no result entry
// remains evictable) checkpoints. keep is never evicted.
func (m *Memo) evictLocked(keep *memoEntry) {
	for m.bytes > m.max {
		var victimKey MemoKey
		var victim *memoEntry
		for k, e := range m.entries {
			if e == keep || e.bytes == 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, k
			}
		}
		if victim != nil {
			delete(m.entries, victimKey)
			m.bytes -= victim.bytes
			m.stats.Evictions++
			continue
		}
		var ckKey engine.CheckpointKey
		var ckVictim *ckptEntry
		for k, e := range m.ckpts {
			if e.bytes == 0 {
				continue
			}
			if ckVictim == nil || e.lastUse < ckVictim.lastUse {
				ckVictim, ckKey = e, k
			}
		}
		if ckVictim == nil {
			return
		}
		delete(m.ckpts, ckKey)
		m.bytes -= ckVictim.bytes
		m.stats.CheckpointEvictions++
	}
}

// Stats returns a consistent snapshot of the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Bytes = m.bytes
	st.Entries = len(m.entries)
	st.Ckpts = len(m.ckpts)
	return st
}
