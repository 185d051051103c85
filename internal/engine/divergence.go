package engine

// Stage orders the phases of a run that a Config field can first
// influence. The divergence map below assigns every Config field its
// stage, and memoization layers key their artifacts on exactly the
// fields at or before the stage they snapshot: a trace batch is
// invalidated by StageTrace fields, a warm-up checkpoint by StageTrace
// and StageWarmup fields, a full result by everything up to
// StageMeasure. StageObservational fields never change timing (pinned
// by the equivalence tests), so no artifact keys on them.
type Stage int

const (
	// StageTrace fields select which op-stream prefix a run consumes.
	StageTrace Stage = iota
	// StageWarmup fields shape the cache state built during warm-up.
	StageWarmup
	// StageMeasure fields first matter in the measured timing loop.
	StageMeasure
	// StageObservational fields observe or steer a run (hooks, buffers,
	// cancellation) without affecting its timing.
	StageObservational
)

// String names the stage for diagnostics and table-driven tests.
func (s Stage) String() string {
	switch s {
	case StageTrace:
		return "trace"
	case StageWarmup:
		return "warmup"
	case StageMeasure:
		return "measure"
	case StageObservational:
		return "observational"
	}
	return "unknown"
}

// fieldStages is the divergence map: every Config field, by name, and
// the earliest stage it influences. A reflection test pins the map to
// the Config struct, so adding a field without classifying it here
// fails the build's tests rather than silently corrupting caches.
var fieldStages = map[string]Stage{
	// The stream prefix is (profile, seed) x instruction budget; Warmup
	// moves the boundary between warmed and measured ops.
	"Instructions": StageTrace,
	"Warmup":       StageTrace,

	// warmCaches touches the data hierarchy and (unless IdealMDC) the
	// counter cache, so exactly their geometry shapes warm-up state.
	"CtrCacheKB": StageWarmup,
	"MDCWays":    StageWarmup,
	"LLCKB":      StageWarmup,
	"LLCWays":    StageWarmup,
	"IdealMDC":   StageWarmup,

	"Scheme":             StageMeasure,
	"MACLatency":         StageMeasure,
	"macLatIsZero":       StageMeasure,
	"BMTLevels":          StageMeasure,
	"WPQEntries":         StageMeasure,
	"PTTEntries":         StageMeasure,
	"ETTSlots":           StageMeasure,
	"EpochSize":          StageMeasure,
	"TriadLevels":        StageMeasure,
	"MACCacheKB":         StageMeasure, // warm-up never touches the MAC cache
	"BMTCacheKB":         StageMeasure, // nor the BMT cache
	"ChainedCoalescing":  StageMeasure,
	"ReadVerification":   StageMeasure,
	"FullMemory":         StageMeasure,
	"FlushCyclesPerLine": StageMeasure,
	"FaultEarlyRootAck":  StageMeasure,
	"NVM":                StageMeasure,

	"Observer": StageObservational,
	"Arena":    StageObservational,
	"Cancel":   StageObservational,
}

// FieldStages returns a copy of the divergence map (field name ->
// earliest stage the field influences).
func FieldStages() map[string]Stage {
	out := make(map[string]Stage, len(fieldStages))
	for k, v := range fieldStages {
		out[k] = v
	}
	return out
}

// CheckpointConfig is the comparable projection of Config onto the
// fields at or before StageWarmup — the complete set of knobs that can
// invalidate a warm-up checkpoint. All values are post-fill.
type CheckpointConfig struct {
	Instructions uint64
	Warmup       uint64
	CtrCacheKB   int
	MDCWays      int
	LLCKB        int
	LLCWays      int
	IdealMDC     bool
}

// CheckpointConfigOf projects cfg (normalized) onto its
// checkpoint-relevant fields.
func CheckpointConfigOf(cfg Config) CheckpointConfig {
	cfg.fill()
	return CheckpointConfig{
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		CtrCacheKB:   cfg.CtrCacheKB,
		MDCWays:      cfg.MDCWays,
		LLCKB:        cfg.LLCKB,
		LLCWays:      cfg.LLCWays,
		IdealMDC:     cfg.IdealMDC,
	}
}

// CheckpointKey identifies one warm-up checkpoint: the trace identity
// (benchmark name and seed) plus the checkpoint-relevant config
// projection. Two runs share a checkpoint exactly when their keys are
// equal; every StageMeasure or StageObservational knob may differ.
type CheckpointKey struct {
	Bench string
	Seed  uint64
	Cfg   CheckpointConfig
}

// CheckpointKeyFor computes the checkpoint key a run of cfg over the
// named profile would use.
func CheckpointKeyFor(cfg Config, bench string, seed uint64) CheckpointKey {
	return CheckpointKey{Bench: bench, Seed: seed, Cfg: CheckpointConfigOf(cfg)}
}
