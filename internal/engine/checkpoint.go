package engine

import (
	"fmt"

	"plp/internal/cache"
	"plp/internal/hier"
	"plp/internal/trace"
)

// Checkpoint freezes a run's complete state at the warm-up boundary:
// deep snapshots of the two structures warm-up mutates (the data
// hierarchy and the counter cache), a positioned clone of the op
// source, and the stream's buffered-but-unconsumed ops. Resuming a
// checkpoint and running the measured region is bit-identical to an
// uninterrupted run (pinned by TestCheckpointResumeEquivalence), for
// every config that shares the checkpoint's key — the warm-up work is
// paid once per (trace, warm-up shape) instead of once per scheme.
//
// A checkpoint is immutable after construction: it may be resumed any
// number of times, concurrently, each resume building its own machine.
type Checkpoint struct {
	key   CheckpointKey
	bench string
	ipc   float64

	data *hier.Snapshot
	ctr  *cache.Snapshot

	source   trace.CloneableSource // positioned at the warm-up boundary
	pending  []trace.Op            // batched ops pulled but not yet consumed
	consumed uint64
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
	cfg.fill()
	if ipc <= 0 {
		ipc = 1
	}
	c, ok := src.(trace.CloneableSource)
	if !ok {
		return nil, fmt.Errorf("engine: source %T is not checkpointable (no CloneSource)", src)
	}
	ck := &Checkpoint{
		key:   CheckpointKeyFor(cfg, bench, seed),
		bench: bench,
		ipc:   ipc,
	}
	data := hier.Default(cfg.LLCKB, cfg.LLCWays)
	ctr := newMDC("ctr", cfg.CtrCacheKB, cfg.MDCWays)
	// The stream must run under the full-run limit (warm-up never
	// reaches it, and batch fill boundaries are position-invariant), so
	// the captured pending ops splice seamlessly into a resumed run.
	st := newOpStream(c.CloneSource(), cfg.Instructions+cfg.Warmup, make([]trace.Op, opBatch))
	warmCaches(data, ctr, cfg.IdealMDC, st, cfg.Warmup)
	ck.data = data.Snapshot()
	ck.ctr = ctr.Snapshot()
	src2, pending, consumed, err := st.checkpoint()
	if err != nil {
		return nil, err
	}
	ck.source = src2.(trace.CloneableSource)
	ck.pending = pending
	ck.consumed = consumed
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
	n += uint64(len(ck.pending)) * 16
	return n + 1024
}

// Resume runs cfg's measured region from the checkpoint, skipping the
// warm-up work. cfg must agree with the checkpoint on every StageTrace
// and StageWarmup field (see CheckpointConfigOf); anything later —
// scheme, latencies, queue sizes, NVM timing, hooks — may differ. The
// returned Result is bit-identical to RunSource on the same config.
func (ck *Checkpoint) Resume(cfg Config) (Result, error) {
	cfg.fill()
	if got := CheckpointConfigOf(cfg); got != ck.key.Cfg {
		return Result{}, fmt.Errorf("engine: checkpoint %+v cannot resume diverged config %+v", ck.key.Cfg, got)
	}
	m := newMachine(cfg)
	if err := m.data.Restore(ck.data); err != nil {
		return Result{}, fmt.Errorf("engine: resume: %w", err)
	}
	if err := m.ctrCache.Restore(ck.ctr); err != nil {
		return Result{}, fmt.Errorf("engine: resume: %w", err)
	}
	st := resumeOpStream(ck.source.CloneSource(), cfg.Instructions+cfg.Warmup,
		m.ar.opBuf(opBatch), ck.pending, ck.consumed)
	m.cfg.Instructions += cfg.Warmup
	return m.measure(st, ck.bench, ck.ipc), nil
}
