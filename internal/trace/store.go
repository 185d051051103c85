package trace

import (
	"math"
	"sync"
	"unsafe"
)

// key identifies one built recording. The synthetic op stream is a
// pure function of the benchmark profile (its name and calibrated
// rates) and seed, and a run consumes a prefix bounded by its
// instruction budget — so (bench, seed, instructions) is the
// recording's complete content key.
type key struct {
	Bench        string
	Seed         uint64
	Instructions uint64
}

// opBytes is the in-memory footprint of one Op, for byte accounting.
var opBytes = uint64(unsafe.Sizeof(Op{}))

// recordingOverhead is the fixed part of a recording's byte
// accounting.
const recordingOverhead = 512

// StoreStats is a snapshot of a Store's traffic and occupancy.
type StoreStats struct {
	Hits      uint64 // Get calls that found an entry, even one still recording
	Misses    uint64 // Get calls that made the entry and recorded it
	Evictions uint64 // entries dropped by the byte bound
	Bytes     uint64 // recorded bytes currently resident
	Entries   int    // entries currently resident
}

// DefaultStoreBytes bounds a Store constructed with max 0 (256 MB —
// about forty 2M-instruction recordings).
const DefaultStoreBytes = 256 << 20

// Store is a bounded, content-keyed cache of built recordings: the
// N schemes x M configs of one sweep generate each (bench, seed,
// instructions) trace exactly once instead of NxM times. Concurrent
// first users of a key share a single recording (singleflight); when
// resident bytes exceed the bound, least-recently-used entries are
// dropped — evicted recordings stay valid for the readers already
// holding them, they just leave the index. A recording holds at most
// the bound's worth of ops, so even the entry just built fits: a
// longer run reads the recording and continues from its tail
// generator. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	max     uint64
	clock   uint64
	entries map[key]*storeEntry
	bytes   uint64
	stats   StoreStats
}

type storeEntry struct {
	once    sync.Once
	rec     *Recording // nil while recording
	bytes   uint64
	lastUse uint64
}

// NewStore builds a recording store bounded to maxBytes of recorded
// ops (0 = DefaultStoreBytes).
func NewStore(maxBytes uint64) *Store {
	if maxBytes == 0 {
		maxBytes = DefaultStoreBytes
	}
	return &Store{max: maxBytes, entries: make(map[key]*storeEntry)}
}

// Get returns the built recording of p's stream up to instructions,
// recording it exactly once per key no matter how many workers ask
// simultaneously.
func (s *Store) Get(p Profile, instructions uint64) *Recording {
	k := key{Bench: p.Name, Seed: p.Seed, Instructions: instructions}
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
		e = &storeEntry{}
		s.entries[k] = e
	}
	s.clock++
	e.lastUse = s.clock
	s.mu.Unlock()
	e.once.Do(func() {
		rec := build(p, instructions, s.maxOps())
		s.mu.Lock()
		e.rec, e.bytes = rec, rec.bytes()
		s.bytes += e.bytes
		s.evictLocked(e)
		s.mu.Unlock()
	})
	return e.rec
}

// maxOps is how many ops one recording may hold within the byte bound.
func (s *Store) maxOps() int {
	if s.max <= recordingOverhead {
		return 0
	}
	return int(min((s.max-recordingOverhead)/opBytes, math.MaxInt))
}

// evictLocked drops least-recently-used recorded entries (never keep,
// nor entries still recording) until bytes fit the bound.
func (s *Store) evictLocked(keep *storeEntry) {
	for s.bytes > s.max {
		var victimKey key
		var victim *storeEntry
		for k, e := range s.entries {
			if e == keep || e.rec == nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victimKey)
		s.bytes -= victim.bytes
		s.stats.Evictions++
	}
}

// Stats returns a consistent snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.bytes
	st.Entries = len(s.entries)
	return st
}
