package trace

import (
	"math"
	"sync"
	"unsafe"
)

// CloneableSource is a Source that can duplicate itself at its
// current position. The clone and the original produce the identical
// remaining op stream independently. The synthetic Generator and the
// store's Replay implement it; the engine requires it to checkpoint a
// warm-up boundary.
type CloneableSource interface {
	Source
	// CloneSource returns an independent deep copy at the current
	// position.
	CloneSource() Source
}

// Key identifies one materialized trace batch. The synthetic op
// stream is a pure function of the benchmark profile (its name and
// calibrated rates) and seed, and a run consumes a prefix bounded by
// its instruction budget — so (bench, seed, instructions) is the
// batch's complete content key.
type Key struct {
	Bench        string
	Seed         uint64
	Instructions uint64
}

// opBytes is the in-memory footprint of one Op, for byte accounting.
var opBytes = uint64(unsafe.Sizeof(Op{}))

// batchOverhead is the fixed part of a batch's byte accounting.
const batchOverhead = 512

// Batch is an immutable materialized prefix of one profile's op
// stream: every op up to (and including the first op crossing) the
// keyed instruction budget, or fewer when a byte bound caps it, plus
// the generator state just past the last op so replays can continue
// seamlessly beyond the materialized region. A batch is safe for any
// number of concurrent Replays.
type Batch struct {
	key  Key
	ops  []Op
	tail *Generator
}

// MaterializeBatch generates profile p's op stream up to the
// instruction budget and freezes it. The op sequence is bit-identical
// to what a fresh Generator hands a run of the same budget.
func MaterializeBatch(p Profile, instructions uint64) *Batch {
	return materialize(p, instructions, math.MaxInt)
}

// materialize is MaterializeBatch holding at most maxOps ops. The op
// slice is presized to the generator's mean op rate, with slack, so it
// is allocated once rather than regrown as it fills.
func materialize(p Profile, instructions uint64, maxOps int) *Batch {
	g := NewGenerator(p)
	return &Batch{
		key:  Key{Bench: p.Name, Seed: p.Seed, Instructions: instructions},
		ops:  record(g, make([]Op, 0, g.opsWithin(instructions, maxOps)), instructions, maxOps),
		tail: g,
	}
}

// opsWithin returns the capacity to presize a batch of g's next instrs
// instructions to, at most maxOps: the mean op count n plus n/64 + 256
// ops of slack. The count's standard deviation is at most sqrt(n), so
// the slack covers at least four of them and a batch rarely outgrows
// it.
func (g *Generator) opsWithin(instrs uint64, maxOps int) int {
	want := float64(instrs) / (g.meanGap + 1)
	want += want/64 + 256
	if want >= float64(maxOps) {
		return maxOps
	}
	return int(want)
}

// Key returns the batch's content key.
func (b *Batch) Key() Key { return b.key }

// Ops returns the number of materialized operations.
func (b *Batch) Ops() int { return len(b.ops) }

// Bytes returns the batch's approximate memory footprint: the op
// slice's capacity, not just the ops it holds, plus a fixed overhead.
func (b *Batch) Bytes() uint64 { return uint64(cap(b.ops))*opBytes + batchOverhead }

// Replay returns a fresh Source over the batch, positioned at the
// start. Replays are independent; a batch serves any number of
// concurrent runs.
func (b *Batch) Replay() *Replay { return &Replay{b: b} }

// Replay streams a batch's ops from memory. It implements Source,
// BatchSource (the engine's zero-dispatch fill path), and
// CloneableSource (so engine checkpoints can capture a position
// inside a replay). Consumers pulling past the materialized end are
// served by a private clone of the batch's tail generator, keeping
// the stream bit-identical to a fresh Generator no matter how far a
// caller reads.
type Replay struct {
	b      *Batch
	pos    int
	instrs uint64
	tail   *Generator // non-nil once the replay has run off the batch end
}

// Next produces the next operation, satisfying Source.
func (r *Replay) Next() Op {
	var op [1]Op
	r.Fill(op[:], ^uint64(0))
	return op[0]
}

// Progress returns the instructions represented so far.
func (r *Replay) Progress() uint64 { return r.instrs }

// Fill writes ops into buf while Progress() < limit, satisfying
// BatchSource with exactly Generator.Fill's stopping rule. It counts
// off the batch ops the limit admits and copies them in one go; past
// the batch end it fills from its clone of the tail generator.
func (r *Replay) Fill(buf []Op, limit uint64) int {
	n := 0
	if r.tail == nil {
		src := r.b.ops[r.pos:]
		src = src[:min(len(src), len(buf))]
		for ; n < len(src) && r.instrs < limit; n++ {
			r.instrs += uint64(src[n].Gap) + 1
		}
		copy(buf, src[:n])
		r.pos += n
		if n == len(buf) || r.instrs >= limit {
			return n
		}
		r.tail = r.b.tail.CloneSource().(*Generator)
	}
	// The tail started where the batch ends, so its count is the
	// replay's.
	n += r.tail.Fill(buf[n:], limit)
	r.instrs = r.tail.Instructions
	return n
}

// CloneSource returns an independent replay at the current position.
func (r *Replay) CloneSource() Source {
	c := *r
	if r.tail != nil {
		c.tail = r.tail.CloneSource().(*Generator)
	}
	return &c
}

// StoreStats is a snapshot of a Store's traffic and occupancy.
type StoreStats struct {
	Hits      uint64 // Get calls served by an existing entry
	Misses    uint64 // Get calls that materialized (or joined a materialization)
	Evictions uint64 // entries dropped by the byte bound
	Bytes     uint64 // materialized bytes currently resident
	Entries   int    // entries currently resident
}

// HitRate returns Hits/(Hits+Misses), or 0 for an untouched store.
func (s StoreStats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// DefaultStoreBytes bounds a Store constructed with max 0 (256 MB —
// about forty 2M-instruction batches).
const DefaultStoreBytes = 256 << 20

// Store is a bounded, content-keyed cache of materialized batches:
// the N schemes x M configs of one sweep generate each (bench, seed,
// instructions) trace exactly once instead of NxM times. Concurrent
// first users of a key share a single materialization (singleflight);
// when resident bytes exceed the bound, least-recently-used entries
// are dropped — evicted batches stay valid for the replays already
// holding them, they just leave the index. A batch holds at most the
// bound's worth of ops, so even the entry just built fits: a longer
// run replays the batch and continues from its tail generator. Safe
// for concurrent use.
type Store struct {
	mu      sync.Mutex
	max     uint64
	clock   uint64
	entries map[Key]*storeEntry
	bytes   uint64
	stats   StoreStats
}

type storeEntry struct {
	once    sync.Once
	batch   *Batch
	bytes   uint64
	lastUse uint64
}

// NewStore builds a batch store bounded to maxBytes of materialized
// ops (0 = DefaultStoreBytes).
func NewStore(maxBytes uint64) *Store {
	if maxBytes == 0 {
		maxBytes = DefaultStoreBytes
	}
	return &Store{max: maxBytes, entries: make(map[Key]*storeEntry)}
}

// Get returns the batch for (p, instructions), materializing it
// exactly once per key no matter how many workers ask simultaneously.
func (s *Store) Get(p Profile, instructions uint64) *Batch {
	key := Key{Bench: p.Name, Seed: p.Seed, Instructions: instructions}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
		e = &storeEntry{}
		s.entries[key] = e
	}
	s.clock++
	e.lastUse = s.clock
	s.mu.Unlock()
	e.once.Do(func() {
		e.batch = materialize(p, instructions, s.maxOps())
		s.mu.Lock()
		e.bytes = e.batch.Bytes()
		s.bytes += e.bytes
		s.evictLocked(e)
		s.mu.Unlock()
	})
	return e.batch
}

// maxOps is how many ops one batch may hold within the byte bound.
func (s *Store) maxOps() int {
	if s.max <= batchOverhead {
		return 0
	}
	return int(min((s.max-batchOverhead)/opBytes, math.MaxInt))
}

// evictLocked drops least-recently-used materialized entries (never
// keep, nor entries still materializing) until bytes fit the bound.
func (s *Store) evictLocked(keep *storeEntry) {
	for s.bytes > s.max {
		var victimKey Key
		var victim *storeEntry
		for k, e := range s.entries {
			if e == keep || e.batch == nil {
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
