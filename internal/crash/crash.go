// Package crash is the crash-injection campaign engine: it runs any
// scheme's timing simulation over an instruction window with a persist
// log attached, reconstructs from that log exactly what the timed
// model says had persisted at a crash cycle (completed tuple persists —
// in-flight WPQ entries and outstanding PTT/ETT tree updates are
// lost), materializes that snapshot into the functional secure memory
// (internal/core), runs recovery, and verifies the paper's invariants:
//
//   - Invariant 1: every persisted datum recovers with its complete
//     (C, γ, M, R) memory tuple — recovery is clean and each block
//     reads back its last persisted value.
//   - Invariant 2: the persisted set is a prefix of the persist order
//     (strict schemes) or a prefix of whole epochs (epoch schemes) —
//     no persist completes while an older one is still in flight.
//
// A campaign (see campaign.go) sweeps systematic crash points (every
// persist-completion boundary in the window) plus seeded-random ones,
// in parallel through the harness worker pool. Every case is
// identified by the deterministic repro triple (scheme, trace seed,
// crash cycle) plus the instruction window, and failing cases shrink
// to the minimal store prefix that still fails.
package crash

import (
	"context"
	"fmt"

	"plp/internal/engine"
	"plp/internal/sim"
	"plp/internal/trace"
)

// Case identifies one crash experiment deterministically: re-running
// the same case reproduces the same snapshot and verdict bit for bit.
type Case struct {
	Scheme engine.Scheme `json:"scheme"`
	Bench  string        `json:"bench"`
	// TraceSeed overrides the benchmark profile's trace seed; 0 keeps
	// the profile default.
	TraceSeed    uint64    `json:"traceSeed,omitempty"`
	Instructions uint64    `json:"instructions"`
	CrashAt      sim.Cycle `json:"crashAt"`
	// FaultEarlyRootAck forwards the engine's fault-injection hook
	// (engine.Config.FaultEarlyRootAck) so a reported fault repro
	// carries everything needed to reproduce it.
	FaultEarlyRootAck bool `json:"faultEarlyRootAck,omitempty"`
}

// String renders the repro identity.
func (c Case) String() string {
	s := fmt.Sprintf("%s/%s seed=%d instructions=%d crash=%d",
		c.Scheme, c.Bench, c.Seed(), c.Instructions, c.CrashAt)
	if c.FaultEarlyRootAck {
		s += " fault=early-root-ack"
	}
	return s
}

// profile resolves the case's benchmark profile, applying the seed
// override.
func (c Case) profile() (trace.Profile, error) {
	p, ok := trace.ProfileByName(c.Bench)
	if !ok {
		return trace.Profile{}, fmt.Errorf("crash: unknown benchmark %q", c.Bench)
	}
	if c.TraceSeed != 0 {
		p.Seed = c.TraceSeed
	}
	return p, nil
}

// Seed returns the effective trace seed (the profile default unless
// overridden) — the seed of the repro triple.
func (c Case) Seed() uint64 {
	if c.TraceSeed != 0 {
		return c.TraceSeed
	}
	if p, ok := trace.ProfileByName(c.Bench); ok {
		return p.Seed
	}
	return 0
}

// config builds the engine configuration of the case's timed run.
func (c Case) config() engine.Config {
	return engine.Config{
		Scheme:            c.Scheme,
		Instructions:      c.Instructions,
		FaultEarlyRootAck: c.FaultEarlyRootAck,
	}
}

// Log is a run's persist log, the engine observer the campaign
// reconstructs crash-time state from: every persist the run schedules
// (program order, block, epoch, WPQ admission, acknowledgement and
// root completion cycles). A crash at cycle C keeps exactly the
// records whose persists completed by C, so one log of the whole
// window answers every crash point. Recording never feeds back into
// the timing model, so results are bit-identical with or without a log
// attached. The zero Log is ready to use.
type Log struct {
	Records []engine.PersistRecord `json:"records"`
}

// Persist appends one persist record.
func (l *Log) Persist(r engine.PersistRecord) { l.Records = append(l.Records, r) }

// Epoch is a no-op: epoch membership travels on each persist record.
func (l *Log) Epoch(engine.EpochRecord) {}

// Sample is a no-op: crash state comes from the records alone.
func (l *Log) Sample(engine.Probe) {}

// End is a no-op.
func (l *Log) End(engine.Probe) {}

// Guarantee is the recoverability contract a scheme promises, which
// determines what the campaign verifies at a crash point. The type
// and the per-scheme mapping live in the engine's scheme registry —
// a scheme and its contract are declared together — and are
// re-exported here for the campaign's callers.
type Guarantee = engine.Guarantee

const (
	// GuaranteeStrict: persists complete in persist order, so the
	// persisted set at any crash instant is an exact prefix. Covers
	// the strict-persistency schemes and secure_WB, whose eviction
	// stream persists through the same sequential engine (it promises
	// nothing about *when* a store persists, but what has persisted is
	// ordered and tuple-complete).
	GuaranteeStrict = engine.GuaranteeStrict
	// GuaranteeEpoch: epoch persistency — whole epochs persist in
	// epoch order; within the newest epoch the crash may tear, and the
	// torn epoch is lost (recovery restarts from the last boundary).
	GuaranteeEpoch = engine.GuaranteeEpoch
	// GuaranteeNone: the unordered scheme deliberately leaves
	// Invariant 2 unenforced (Table II); only well-formedness is
	// checked, never ordering. The campaign's negative control forces
	// GuaranteeStrict onto its snapshots to show violations occur.
	GuaranteeNone = engine.GuaranteeNone
)

// GuaranteeOf maps a scheme to its recoverability contract, straight
// from the scheme registry.
func GuaranteeOf(s engine.Scheme) Guarantee {
	return engine.GuaranteeOf(s)
}

// Snapshot is the persisted state a crash at Case.CrashAt freezes, as
// the timing model reports it. Persisted holds every persist whose
// whole tuple completed by the crash instant, in persist order;
// InFlight holds the invariant-relevant lost persists — those that
// were admitted but incomplete while a younger persist (strict) or a
// younger epoch's persist (epoch) had already completed. Records
// admitted after every persisted one are simply never-issued work and
// carry no invariant obligation, so they are not listed.
type Snapshot struct {
	Case Case `json:"case"`
	// Horizon is the last cycle of the timed window the log covers.
	// Reporting only: verdicts never depend on it.
	Horizon   sim.Cycle              `json:"horizon"`
	Persisted []engine.PersistRecord `json:"persisted"`
	InFlight  []engine.PersistRecord `json:"inFlight"`
}

// snapshotFromLog extracts the crash-time persisted state at
// c.CrashAt from the persist log of the case's window.
func snapshotFromLog(c Case, log *Log, horizon sim.Cycle) Snapshot {
	snap := Snapshot{Case: c, Horizon: horizon}
	at := c.CrashAt
	var maxSeq, maxEpoch uint64
	for _, r := range log.Records {
		if r.Done <= at {
			snap.Persisted = append(snap.Persisted, r)
			maxSeq, maxEpoch = r.Seq, r.Epoch
		}
	}
	if len(snap.Persisted) > 0 {
		epoch := GuaranteeOf(c.Scheme) == GuaranteeEpoch
		for _, r := range log.Records {
			if r.Done <= at {
				continue
			}
			if (epoch && r.Epoch <= maxEpoch) || (!epoch && r.Seq < maxSeq) {
				snap.InFlight = append(snap.InFlight, r)
			}
		}
	}
	return snap
}

// Take runs the case's timed window and returns the persisted-state
// snapshot at its crash cycle. Deterministic: equal cases yield
// byte-identical snapshots.
func Take(c Case) (Snapshot, error) {
	log, horizon, err := runLog(context.TODO(), c)
	if err != nil {
		return Snapshot{}, err
	}
	return snapshotFromLog(c, log, horizon), nil
}

// runLog executes the case's whole timed window with a persist log
// attached; its crash cycle plays no part. Cancelling ctx stops the run
// cooperatively (engine Config.Cancel) and returns ctx.Err().
func runLog(ctx context.Context, c Case) (*Log, sim.Cycle, error) {
	p, err := c.profile()
	if err != nil {
		return nil, 0, err
	}
	log := &Log{}
	cfg := c.config()
	cfg.Observer = log
	cfg.Cancel = ctx
	res := engine.Run(cfg, p)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return log, res.Cycles, nil
}

// RecoverySummary condenses the functional recovery of a materialized
// snapshot.
type RecoverySummary struct {
	BMTOK         bool `json:"bmtOK"`
	MACFailures   int  `json:"macFailures"`
	BlocksChecked int  `json:"blocksChecked"`
}

// Verdict is one crash point's verification outcome.
type Verdict struct {
	Case      Case      `json:"case"`
	Guarantee Guarantee `json:"guarantee"`
	// Persisted/InFlight mirror the snapshot's counts; Materialized is
	// the number of persists replayed into the functional memory and
	// DroppedPartial the persisted records discarded with a torn
	// newest epoch (epoch schemes: a mid-epoch crash loses the epoch).
	Persisted      int             `json:"persisted"`
	InFlight       int             `json:"inFlight"`
	Materialized   int             `json:"materialized"`
	DroppedPartial int             `json:"droppedPartial,omitempty"`
	Recovery       RecoverySummary `json:"recovery"`
	// Violations lists the invariant breaches found at this crash
	// point (empty = the point verifies).
	Violations []string `json:"violations,omitempty"`
}

// OK reports whether the crash point verified cleanly.
func (v Verdict) OK() bool { return len(v.Violations) == 0 }

// maxListed bounds the violation strings recorded per crash point; a
// torn window can implicate hundreds of persists and one verdict only
// needs enough to diagnose.
const maxListed = 8

// Check verifies a snapshot under its scheme's own guarantee. levels
// sets the functional memory's BMT depth (0 = DefaultLevels).
func Check(snap Snapshot, levels int) Verdict {
	return CheckAs(snap, GuaranteeOf(snap.Case.Scheme), levels)
}

// CheckAs verifies a snapshot under an explicit guarantee: the
// ordering invariant on the timed persisted set, then recovery of the
// materialized functional state. Forcing a guarantee a scheme does
// not give (e.g. strict onto unordered) is the campaign's negative
// control.
func CheckAs(snap Snapshot, g Guarantee, levels int) Verdict {
	v := Verdict{
		Case:      snap.Case,
		Guarantee: g,
		Persisted: len(snap.Persisted),
		InFlight:  len(snap.InFlight),
	}
	v.Violations = append(v.Violations, checkOrder(snap, g)...)
	mat := materialize(snap, g, levels)
	v.Materialized = mat.materialized
	v.DroppedPartial = mat.dropped
	v.Recovery = mat.summary
	v.Violations = append(v.Violations, mat.violations...)
	return v
}

// checkOrder verifies Invariant 2 on the timed persisted set.
func checkOrder(snap Snapshot, g Guarantee) []string {
	if g == GuaranteeNone || len(snap.Persisted) == 0 {
		return nil
	}
	last := snap.Persisted[len(snap.Persisted)-1]
	var out []string
	listed, extra := 0, 0
	add := func(format string, args ...interface{}) {
		if listed < maxListed {
			out = append(out, fmt.Sprintf(format, args...))
			listed++
		} else {
			extra++
		}
	}
	// A persist acknowledged before its root update completed (Done <
	// RootDone straddling the crash) left a tuple missing its R — the
	// exact failure Config.FaultEarlyRootAck injects. Checked under
	// every guarantee; correct schemes always record RootDone <= Done.
	for _, r := range snap.Persisted {
		if r.RootDone > snap.Case.CrashAt {
			add("invariant 2: persist #%d (block %d) acknowledged at cycle %d with its root update still in flight (root done %d) at crash cycle %d",
				r.Seq, r.Block, r.Done, r.RootDone, snap.Case.CrashAt)
		}
	}
	switch g {
	case GuaranteeStrict:
		for _, r := range snap.InFlight {
			add("invariant 2: persist #%d (block %d, done %d) incomplete at crash cycle %d while younger persist #%d had completed",
				r.Seq, r.Block, r.Done, snap.Case.CrashAt, last.Seq)
		}
		// Belt and braces: with no in-flight elders the persisted seqs
		// must be exactly 0..n-1.
		if len(snap.InFlight) == 0 {
			for i, r := range snap.Persisted {
				if r.Seq != uint64(i) {
					add("invariant 2: persisted set is not a persist-order prefix (position %d holds persist #%d)", i, r.Seq)
					break
				}
			}
		}
	case GuaranteeEpoch:
		for _, r := range snap.InFlight {
			if r.Epoch < last.Epoch {
				add("invariant 2 (epoch): persist #%d of epoch %d (done %d) incomplete at crash cycle %d while epoch %d had completed persists",
					r.Seq, r.Epoch, r.Done, snap.Case.CrashAt, last.Epoch)
			}
		}
	}
	if extra > 0 {
		out = append(out, fmt.Sprintf("... and %d more ordering violations", extra))
	}
	return out
}

// Verify runs the case end to end: timed window, snapshot at the crash
// cycle, materialization, recovery, invariant checks.
func Verify(c Case, levels int) (Verdict, error) {
	snap, err := Take(c)
	if err != nil {
		return Verdict{}, err
	}
	return Check(snap, levels), nil
}
