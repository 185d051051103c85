package engine

import (
	"plp/internal/addr"
	"plp/internal/ett"
	"plp/internal/ptt"
	"plp/internal/sim"
	"plp/internal/wpq"
)

// Observer watches one run at the moments the paper is about: a memory
// tuple (C, γ, M, R) persist retiring and an epoch flushing. It is the
// engine's single observational hook (Config.Observer). Observation
// never feeds back into the timing model, so a run's Result is
// bit-identical with or without an observer (pinned for every
// implementation and scheme by the observer equivalence test), and a
// nil Observer costs one pointer check per persist.
//
// The implementations: the telemetry sampler (telemetry.Sampler), the
// crash campaign's persist log (crash.Log), and the event stream
// (NewTracer). An observer belongs to one run at a time.
type Observer interface {
	// Persist reports one tuple persist, in program persist order.
	Persist(PersistRecord)
	// Epoch reports one epoch flush (epoch persistency schemes only),
	// after the Persist calls of the epoch's blocks.
	Epoch(EpochRecord)
	// Sample is a sample point: it follows every retired persist of a
	// strict scheme and every epoch flush, at the core cycle reached.
	Sample(Probe)
	// End closes the run with a final probe at its last cycle; the
	// probe's counters are the Result totals.
	End(Probe)
}

// PersistRecord is one tuple persist as the timing model scheduled it:
// the identity the crash-injection campaign needs to reconstruct what
// had persisted at an arbitrary crash cycle. Seq is the program
// persist order (0-based); Admit is when the persist obtained its WPQ
// entry; Done is when the scheme acknowledged the whole memory tuple
// as persisted (the cycle the WPQ entry unlocks); RootDone is when its
// BMT root update actually completed. In a correct scheme RootDone
// never exceeds Done — an acknowledgement before the root update is
// precisely the Invariant 2 bug Config.FaultEarlyRootAck injects.
// Epoch is the 0-based epoch index for the epoch persistency schemes
// and 0 elsewhere.
type PersistRecord struct {
	Seq      uint64     `json:"seq"`
	Block    addr.Block `json:"block"`
	Epoch    uint64     `json:"epoch,omitempty"`
	Admit    sim.Cycle  `json:"admit"`
	Done     sim.Cycle  `json:"done"`
	RootDone sim.Cycle  `json:"rootDone"`
}

// event is the record's "persist" trace event: At = acknowledgement,
// Arg = data block, Arg2 = latency from WPQ admission.
func (r PersistRecord) event() TraceEvent {
	return TraceEvent{At: r.Done, Kind: "persist", Arg: uint64(r.Block), Arg2: uint64(r.Done - r.Admit)}
}

// EpochRecord is one epoch flush: Drain is the cycle the sfence
// drained the epoch's Blocks distinct dirty lines toward the WPQ, Done
// when its last root update completed.
type EpochRecord struct {
	Blocks int
	Drain  sim.Cycle
	Done   sim.Cycle
}

// event is the record's "epoch" trace event: At = completion, Arg =
// distinct blocks, Arg2 = latency from the drain.
func (r EpochRecord) event() TraceEvent {
	return TraceEvent{At: r.Done, Kind: "epoch", Arg: uint64(r.Blocks), Arg2: uint64(r.Done - r.Drain)}
}

// Probe is a read-only view of the machine at a sample point, valid
// only during the Observer call that receives it. Counters are running
// totals since the start of the measured region; the hardware handles
// answer occupancy queries at any cycle (InFlightAt) and must not be
// modified.
type Probe struct {
	at  sim.Cycle
	m   *machine
	res *Result
}

// At is the core cycle of the sample point.
func (p Probe) At() sim.Cycle { return p.at }

// Persists is the number of tuple persists retired so far.
func (p Probe) Persists() uint64 { return p.res.Persists }

// Epochs is the number of epochs flushed so far.
func (p Probe) Epochs() uint64 { return p.res.Epochs }

// NVMReads is the number of NVM line reads so far.
func (p Probe) NVMReads() uint64 { return p.m.mem.Reads }

// NVMWrites is the number of NVM line writes so far.
func (p Probe) NVMWrites() uint64 { return p.m.mem.Writes }

// Stalls is the cumulative core cycles per attribution component,
// indexed like ComponentLabels. It aliases the machine's accumulator:
// read it, never keep or modify it.
func (p Probe) Stalls() []float64 { return p.m.att.comp[:] }

// WPQ is the write pending queue.
func (p Probe) WPQ() *wpq.Queue { return p.m.q }

// PTT is the persist tracking table, nil unless the scheme drives one.
func (p Probe) PTT() *ptt.Table { return p.m.pttTab }

// ETT is the epoch tracking scheduler, nil unless the scheme drives
// one.
func (p Probe) ETT() *ett.Scheduler { return p.m.ettSched }

// TraceEvent is one structured observation of a run, derived from its
// persist and epoch records. Kind is "persist" or "epoch"; Arg/Arg2
// carry the kind's payload (see PersistRecord.event and
// EpochRecord.event). The field tags make events directly encodable
// as JSONL.
type TraceEvent struct {
	At   sim.Cycle `json:"at"`
	Kind string    `json:"kind"`
	Arg  uint64    `json:"arg,omitempty"`
	Arg2 uint64    `json:"arg2,omitempty"`
}

// retire closes one persist of a strict-order scheme once the core
// has taken its stall: it counts the persist and its latency, then
// reports the persist and a sample point at the core's cycle to the
// observer. With no observer this is a single pointer check beyond the
// counters.
func (m *machine) retire(res *Result, blk addr.Block, admit, ack, rootDone sim.Cycle) {
	seq := res.Persists
	res.PersistLatency.Add(uint64(ack - admit))
	res.Persists++
	if obs := m.cfg.Observer; obs != nil {
		obs.Persist(PersistRecord{Seq: seq, Block: blk, Admit: admit, Done: ack, RootDone: rootDone})
		obs.Sample(Probe{cyc(m.coreTime), m, res})
	}
}

// persisted counts one persist of an epoch and reports it to the
// observer; the epoch's sample point follows in epochRetired.
func (m *machine) persisted(res *Result, blk addr.Block, admit, done sim.Cycle) {
	seq := res.Persists
	res.PersistLatency.Add(uint64(done - admit))
	res.Persists++
	if obs := m.cfg.Observer; obs != nil {
		obs.Persist(PersistRecord{Seq: seq, Block: blk, Epoch: res.Epochs, Admit: admit, Done: done, RootDone: done})
	}
}

// epochRetired closes one epoch flush of blocks distinct lines, once
// the core has waited for its ETT slot: it counts the epoch and
// reports it plus a sample point at the core's cycle.
func (m *machine) epochRetired(res *Result, blocks int, drain, done sim.Cycle) {
	res.Epochs++
	if obs := m.cfg.Observer; obs != nil {
		obs.Epoch(EpochRecord{Blocks: blocks, Drain: drain, Done: done})
		obs.Sample(Probe{cyc(m.coreTime), m, res})
	}
}
