// Package plp is a library-scale reproduction of "Persist Level
// Parallelism: Streamlining Integrity Tree Updates for Secure
// Persistent Memory" (Freij, Yuan, Zhou, Solihin — MICRO 2020).
//
// It provides two complementary layers:
//
//   - A functional secure persistent memory (Memory): counter-mode
//     encryption with split counters, stateful MACs, and a Bonsai
//     Merkle Tree over a real NVM image, with an explicit persist
//     domain, crash and recovery. Use it to build crash-recoverable
//     applications and to study the paper's correctness invariants.
//
//   - A timing simulator (Session): the paper's six evaluated persist
//     mechanisms (Table IV) — secure_WB, unordered, sp, pipeline, o3,
//     coalescing — driven by synthetic SPEC2006-calibrated workloads,
//     reproducing the evaluation's tables and figures. Build a
//     validated, cancellable run with NewSession and functional
//     options (WithScheme, WithBenchmark, WithContext, WithTelemetry).
//
// The cmd/plptables binary regenerates every table and figure;
// EXPERIMENTS.md records paper-versus-measured results. The
// cmd/plpserve binary exposes the simulator as an asynchronous job
// service over HTTP (see internal/jobs). docs/API.md documents which
// of these surfaces are stable.
package plp

import (
	"plp/internal/addr"
	"plp/internal/core"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/pmodel"
	"plp/internal/recovery"
	"plp/internal/trace"
	"plp/internal/tuple"
	"plp/internal/txn"
)

// Functional secure memory (see internal/core for full documentation).
type (
	// Memory is a functional secure persistent memory with real
	// encryption, MACs, and an integrity tree.
	Memory = core.Memory
	// MemoryConfig parameterizes a Memory.
	MemoryConfig = core.Config
	// BlockData is one 64-byte block's contents.
	BlockData = core.BlockData
	// Block identifies a 64-byte memory block.
	Block = addr.Block
	// RecoveryReport summarizes post-crash verification.
	RecoveryReport = core.RecoveryReport
)

// NewMemory constructs a functional secure persistent memory.
func NewMemory(cfg MemoryConfig) (*Memory, error) { return core.New(cfg) }

// BlockSnapshot captures a block's off-chip state for replay-attack
// simulation (Memory.SnapshotBlock / Memory.Replay).
type BlockSnapshot = core.Snapshotter

// Timing simulation (see internal/engine).
type (
	// Scheme selects a persist mechanism (Table IV).
	Scheme = engine.Scheme
	// SimConfig parameterizes one simulation (Table III defaults).
	SimConfig = engine.Config
	// SimResult reports a simulation's outcome.
	SimResult = engine.Result
	// Profile describes one synthetic benchmark.
	Profile = trace.Profile
)

// The evaluated schemes.
const (
	SecureWB   = engine.SchemeSecureWB
	Unordered  = engine.SchemeUnordered
	SP         = engine.SchemeSP
	Pipeline   = engine.SchemePipeline
	O3         = engine.SchemeO3
	Coalescing = engine.SchemeCoalescing
	SGXTree    = engine.SchemeSGXTree
	Colocated  = engine.SchemeColocated
)

// The rival designs from the surrounding literature, implemented on
// the same machine model for a directly comparable (performance,
// recoverability, recovery-time) matrix.
const (
	// TriadSel is Triad-NVM selective tree persistence: the lowest
	// SimConfig.TriadLevels BMT levels persist inline with each walk.
	TriadSel = engine.SchemeTriadSel
	// Phoenix is the persistently secure counter tree: every node
	// update written through to NVM, pipelined walks, constant-work
	// recovery.
	Phoenix = engine.SchemePhoenix
	// Shadow is Anubis-style shadow-address tracking of in-flight
	// metadata updates; recovery replays the shadow region.
	Shadow = engine.SchemeShadow
	// SuperMemWC is SuperMem-style write coalescing at the
	// security-metadata level: same-leaf persist bursts share a walk.
	SuperMemWC = engine.SchemeSuperMemWC
)

// Benchmarks returns the 15 SPEC2006-calibrated workload profiles.
func Benchmarks() []Profile { return trace.Profiles() }

// BenchmarkByName finds a workload profile.
func BenchmarkByName(name string) (Profile, bool) { return trace.ProfileByName(name) }

// Experiments (see internal/harness).
type (
	// Experiment is one reproduced table or figure.
	Experiment = harness.Experiment
	// ExperimentOptions bounds an experiment run.
	ExperimentOptions = harness.Options
)

// Experiments returns every experiment driver keyed by ID
// (tableV, fig8..fig12, wpq, mdc, llc, coalesce).
func Experiments() map[string]func(ExperimentOptions) *Experiment { return harness.All() }

// ExperimentOrder lists experiment IDs in presentation order.
func ExperimentOrder() []string { return harness.Order() }

// Crash-recovery checking (see internal/recovery and internal/tuple).
type (
	// FuzzConfig bounds a crash-recovery fuzzing run.
	FuzzConfig = recovery.Config
	// FuzzReport summarizes a fuzzing run.
	FuzzReport = recovery.Report
	// TupleItem identifies one memory-tuple component (C, γ, M, R).
	TupleItem = tuple.Item
	// Outcome is a set of recovery failure indications.
	Outcome = tuple.Outcome
)

// FuzzAtomicPersists crash-tests fully atomic ordered persists.
func FuzzAtomicPersists(cfg FuzzConfig) FuzzReport { return recovery.FuzzAtomicPersists(cfg) }

// FuzzEpochOOO crash-tests out-of-order intra-epoch tree updates.
func FuzzEpochOOO(cfg FuzzConfig, epochSize int) FuzzReport {
	return recovery.FuzzEpochOOO(cfg, epochSize)
}

// CheckTableI validates the paper's Table I failure predictions.
func CheckTableI(cfg FuzzConfig) FuzzReport { return recovery.CheckTableI(cfg) }

// CheckRootOrderViolation validates that out-of-order BMT root updates
// break crash recovery (Table II, the paper's core observation).
func CheckRootOrderViolation(cfg FuzzConfig) FuzzReport {
	return recovery.CheckRootOrderViolation(cfg)
}

// Durable atomic regions (see internal/txn): undo-logged transactions
// over the secure memory — the paper's §III top-level mechanism.
type (
	// TxnManager runs durable atomic regions over a Memory.
	TxnManager = txn.Manager
	// TxnRecovery describes what transaction recovery did.
	TxnRecovery = txn.RecoveryOutcome
)

// NewTxnManager creates a transaction manager whose undo log occupies
// blocks [logBase, logBase+1+2*capacity) of mem.
func NewTxnManager(mem *Memory, logBase Block, capacity int) (*TxnManager, error) {
	return txn.NewManager(mem, logBase, capacity)
}

// Persistency-model front-ends (see internal/pmodel): the middle layer
// of §III's stack.
type (
	// StrictMemory persists every write synchronously, in order.
	StrictMemory = pmodel.Strict
	// EpochMemory buffers writes and persists them at Barrier calls.
	EpochMemory = pmodel.Epoch
)

// NewStrictMemory wraps mem under strict persistency.
func NewStrictMemory(mem *Memory) *StrictMemory { return pmodel.NewStrict(mem) }

// NewEpochMemory wraps mem under epoch persistency.
func NewEpochMemory(mem *Memory) *EpochMemory { return pmodel.NewEpoch(mem) }
