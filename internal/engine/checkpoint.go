package engine

import (
	"fmt"

	"plp/internal/cache"
	"plp/internal/hier"
	"plp/internal/trace"
)

// Checkpoint freezes a run's complete state at the warm-up boundary:
// deep snapshots of the two structures warm-up mutates (the data
// hierarchy and the counter cache) and a reader of a built recording
// of the stream, positioned just past the warm-up's last op. Resuming
// a checkpoint and running the measured region is bit-identical to an
// uninterrupted run (pinned by TestCheckpointResumeEquivalence), for
// every config that shares the checkpoint's key — the warm-up work is
// paid once per (trace, warm-up shape) instead of once per scheme.
//
// A checkpoint is immutable after construction: it may be resumed any
// number of times, concurrently, each resume building its own machine
// and reading a clone of the reader.
type Checkpoint struct {
	key   CheckpointKey
	bench string
	ipc   float64

	data *hier.Snapshot
	ctr  *cache.Snapshot

	src *trace.RecordingReader // at the warm-up boundary
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

// NewCheckpoint builds the warm-up checkpoint of (cfg, prof) over rec,
// a built recording of prof's stream (trace.Store.Get's): it streams
// cfg.Warmup instructions of the stream through fresh warm-up
// structures and snapshots everything a resumed run needs. It panics
// if rec is an arena's growing recording, whose pages no checkpoint
// may pin, or a recording of another profile.
func NewCheckpoint(cfg Config, prof trace.Profile, rec *trace.Recording) *Checkpoint {
	key := CheckpointKeyFor(cfg, prof.Name, prof.Seed)
	cfg = key.Cfg
	ipc := prof.IPC
	if ipc <= 0 {
		ipc = 1
	}
	// Cloning refuses a growing recording before any work is done.
	src := rec.Reader(prof).Clone()
	data := hier.Default(cfg.LLCKB, cfg.LLCWays)
	ctr := newMDC("ctr", cfg.CtrCacheKB, cfg.MDCWays)
	warmCtr := ctr
	if cfg.IdealMDC {
		warmCtr = nil
	}
	// Warm-up fills under its own bound, so it reads src exactly to the
	// boundary and leaves no filled op behind: src is the stream's
	// position.
	warmCaches(data, warmCtr, newOpStream(src, make([]trace.Op, opBatch)), cfg.Warmup)
	return &Checkpoint{
		key:   key,
		bench: prof.Name,
		ipc:   ipc,
		data:  data.Snapshot(),
		ctr:   ctr.Snapshot(),
		src:   src,
	}
}

// Key returns the checkpoint's identity.
func (ck *Checkpoint) Key() CheckpointKey { return ck.key }

// Bytes returns the checkpoint's approximate memory footprint: its
// two cache snapshots. It leaves out the recording its reader pins,
// which a trace.Store counts while it holds it.
func (ck *Checkpoint) Bytes() uint64 {
	return ck.data.Bytes() + ck.ctr.Bytes() + 1024
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
	st := newOpStream(ck.src.Clone(), m.ar.opBuf(opBatch))
	m.cfg.Instructions += cfg.Warmup
	return m.measure(st, ck.bench, ck.ipc), nil
}
