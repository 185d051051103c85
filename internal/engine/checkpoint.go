package engine

import (
	"fmt"

	"plp/internal/cache"
	"plp/internal/hier"
	"plp/internal/trace"
)

// Checkpoint freezes a run's complete state at the warm-up boundary:
// deep snapshots of the two structures warm-up mutates (the data
// hierarchy and the counter cache) and the op source positioned just
// past the warm-up's last op. Resuming a checkpoint and running the
// measured region is bit-identical to an uninterrupted run (pinned by
// TestCheckpointResumeEquivalence), for every config that shares the
// checkpoint's key — the warm-up work is paid once per (trace, warm-up
// shape) instead of once per scheme.
//
// A checkpoint is immutable after construction: it may be resumed any
// number of times, concurrently, each resume building its own machine.
type Checkpoint struct {
	key   CheckpointKey
	bench string
	ipc   float64

	data *hier.Snapshot
	ctr  *cache.Snapshot

	source trace.CloneableSource // positioned at the warm-up boundary
}

// CheckpointKey identifies one warm-up checkpoint: the trace identity
// (benchmark name and seed) plus the config's warm-up projection (see
// warmupConfig). Two runs share a checkpoint exactly when their keys
// are equal; every other field may differ.
type CheckpointKey struct {
	Bench string
	Seed  uint64
	Cfg   Config
}

// CheckpointKeyFor computes the checkpoint key a run of cfg over the
// named profile would use.
func CheckpointKeyFor(cfg Config, bench string, seed uint64) CheckpointKey {
	return CheckpointKey{Bench: bench, Seed: seed, Cfg: warmupConfig(cfg)}
}

// warmupConfig projects cfg, normalized, onto the seven fields warm-up
// reads: the stream prefix (Instructions, Warmup) and the geometry of
// the data hierarchy and counter cache warmCaches fills. A checkpoint
// is built from this projection alone, so a field warm-up starts to
// read without being kept here shows up as a resumed run that differs
// from its cold run, not as a checkpoint silently shared.
func warmupConfig(cfg Config) Config {
	cfg.fill()
	return Config{
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		CtrCacheKB:   cfg.CtrCacheKB,
		MDCWays:      cfg.MDCWays,
		LLCKB:        cfg.LLCKB,
		LLCWays:      cfg.LLCWays,
		IdealMDC:     cfg.IdealMDC,
	}
}

// NewCheckpoint builds the warm-up checkpoint of (cfg, prof): it
// streams cfg.Warmup instructions of prof's trace through fresh
// warm-up structures and snapshots everything a resumed run needs.
func NewCheckpoint(cfg Config, prof trace.Profile) (*Checkpoint, error) {
	return NewCheckpointSource(cfg, prof.Name, prof.Seed, prof.IPC, trace.NewGenerator(prof))
}

// NewCheckpointSource is NewCheckpoint over an arbitrary cloneable
// source (a generator, or a trace.Store replay — which shares the
// materialized batch instead of re-generating it). seed and bench
// identify the trace in the checkpoint's key; ipc is the baseline core
// IPC a resumed run simulates at. The caller's source is not consumed.
func NewCheckpointSource(cfg Config, bench string, seed uint64, ipc float64, src trace.Source) (*Checkpoint, error) {
	key := CheckpointKeyFor(cfg, bench, seed)
	cfg = key.Cfg
	if ipc <= 0 {
		ipc = 1
	}
	c, ok := src.(trace.CloneableSource)
	if !ok {
		return nil, fmt.Errorf("engine: source %T is not checkpointable (no CloneSource)", src)
	}
	ck := &Checkpoint{
		key:   key,
		bench: bench,
		ipc:   ipc,
	}
	data := hier.Default(cfg.LLCKB, cfg.LLCWays)
	ctr := newMDC("ctr", cfg.CtrCacheKB, cfg.MDCWays)
	// Warm-up fills under its own bound, so it reads its clone of the
	// source exactly to the boundary and leaves no filled op behind:
	// the clone is the stream's position.
	warm := c.CloneSource()
	warmCtr := ctr
	if cfg.IdealMDC {
		warmCtr = nil
	}
	warmCaches(data, warmCtr, newOpStream(warm, make([]trace.Op, opBatch)), cfg.Warmup)
	ck.data = data.Snapshot()
	ck.ctr = ctr.Snapshot()
	ck.source = warm.(trace.CloneableSource)
	return ck, nil
}

// Key returns the checkpoint's identity.
func (ck *Checkpoint) Key() CheckpointKey { return ck.key }

// Bytes returns the checkpoint's approximate memory footprint.
func (ck *Checkpoint) Bytes() uint64 {
	var n uint64
	if ck.data != nil {
		n += ck.data.Bytes()
	}
	if ck.ctr != nil {
		n += ck.ctr.Bytes()
	}
	return n + 1024
}

// Resume runs cfg's measured region from the checkpoint, skipping the
// warm-up work. cfg must agree with the checkpoint on its warm-up
// projection (see warmupConfig); anything else — scheme, latencies,
// queue sizes, NVM timing, hooks — may differ. The returned Result is
// bit-identical to RunSource on the same config.
func (ck *Checkpoint) Resume(cfg Config) (Result, error) {
	cfg.fill()
	if got := warmupConfig(cfg); got != ck.key.Cfg {
		return Result{}, fmt.Errorf("engine: checkpoint %+v cannot resume diverged config %+v", ck.key.Cfg, got)
	}
	m := newMachine(cfg)
	// A run without a data hierarchy (see Config.readsData) has none to
	// restore; it shares the checkpoint of the runs that do.
	if m.data != nil {
		if err := m.data.Restore(ck.data); err != nil {
			return Result{}, fmt.Errorf("engine: resume: %w", err)
		}
	}
	if err := m.ctrCache.Restore(ck.ctr); err != nil {
		return Result{}, fmt.Errorf("engine: resume: %w", err)
	}
	st := newOpStream(ck.source.CloneSource(), m.ar.opBuf(opBatch))
	m.cfg.Instructions += cfg.Warmup
	return m.measure(st, ck.bench, ck.ipc), nil
}
