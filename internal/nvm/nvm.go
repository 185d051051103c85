// Package nvm is the timing model of the non-volatile main memory:
// a DDR-attached PCM device with per-bank serial occupancy, using the
// parameters of the paper's Table III (8GB DDR-based PCM at 1200MHz;
// tRCD/tXAW/tBURST/tWR/tRFC/tCL = 55/50/5/150/5/12.5 ns) scaled to the
// 4GHz processor clock.
//
// The model is timestamp-based: callers present a ready time and
// receive a completion time; queueing delay emerges from bank
// contention. Read and write requests occupy a bank for different
// durations (array reads are fast relative to PCM cell writes).
package nvm

import "plp/internal/sim"

// Config holds NVM timing parameters. All latencies are in
// nanoseconds; CyclesPerNS converts to processor cycles.
type Config struct {
	CyclesPerNS float64
	// ReadNS is the bank occupancy + data return time of one 64B read
	// (tRCD + tCL + tBURST).
	ReadNS float64
	// WriteNS is the bank occupancy of one 64B write (tWR + tBURST);
	// PCM writes are slow.
	WriteNS float64
	// Banks is the number of independently scheduled banks serving
	// reads. Reads have absolute priority over writes (standard memory
	// controller policy): writes drain from the write queue without
	// ever delaying a read.
	Banks int
	// WriteBusNS is the minimum spacing between write drains (the
	// channel's sustained write bandwidth: one 64B line per WriteBusNS).
	// 1200MHz DDR ≈ 19.2 GB/s ≈ 3.33ns per line.
	WriteBusNS float64
	// WriteQueue is the write queue's capacity (Table III: 128
	// entries). It bounds how far writes may lag: a write issued when
	// the queue is full completes only after older writes drain. Reads
	// need no queue bound: they schedule per bank with absolute
	// priority.
	WriteQueue int
}

// DefaultConfig returns the paper's Table III NVM parameters for a
// 4GHz core.
func DefaultConfig() Config {
	return Config{
		CyclesPerNS: 4,
		ReadNS:      55 + 12.5 + 5, // tRCD + tCL + tBURST
		WriteNS:     150 + 5,       // tWR + tBURST
		Banks:       16,
		WriteBusNS:  3.34, // 1200MHz DDR channel ≈ 19.2 GB/s
		WriteQueue:  128,
	}
}

// Memory is the NVM timing model.
type Memory struct {
	cfg      Config
	readCyc  sim.Cycle
	writeCyc sim.Cycle
	banks    []sim.Cycle // nextFree per bank (reads)

	// Write path: a bandwidth-limited drain plus a bounded queue.
	// wq is a ring of drain times of queued writes.
	writeBus sim.Resource
	wq       []sim.Cycle
	wqHead   int

	// Stats.
	Reads, Writes uint64
	ReadStall     sim.Cycle // total queueing delay of reads
	WriteStall    sim.Cycle // total time writes waited for queue space
	lastDrain     sim.Cycle
}

// New creates an NVM with the given config (zero fields defaulted).
func New(cfg Config) *Memory {
	def := DefaultConfig()
	if cfg.CyclesPerNS == 0 {
		cfg.CyclesPerNS = def.CyclesPerNS
	}
	if cfg.ReadNS == 0 {
		cfg.ReadNS = def.ReadNS
	}
	if cfg.WriteNS == 0 {
		cfg.WriteNS = def.WriteNS
	}
	if cfg.Banks == 0 {
		cfg.Banks = def.Banks
	}
	if cfg.WriteBusNS == 0 {
		cfg.WriteBusNS = def.WriteBusNS
	}
	if cfg.WriteQueue == 0 {
		cfg.WriteQueue = def.WriteQueue
	}
	m := &Memory{
		cfg:      cfg,
		readCyc:  sim.Cycle(cfg.ReadNS * cfg.CyclesPerNS),
		writeCyc: sim.Cycle(cfg.WriteNS * cfg.CyclesPerNS),
		banks:    make([]sim.Cycle, cfg.Banks),
		wq:       make([]sim.Cycle, cfg.WriteQueue),
	}
	m.writeBus = sim.Resource{
		Latency:    m.writeCyc,
		Initiation: sim.Cycle(cfg.WriteBusNS * cfg.CyclesPerNS),
	}
	return m
}

// ReadLatency returns the uncontended read latency in cycles.
func (m *Memory) ReadLatency() sim.Cycle { return m.readCyc }

// WriteLatency returns the uncontended write occupancy in cycles.
func (m *Memory) WriteLatency() sim.Cycle { return m.writeCyc }

func (m *Memory) acquire(key uint64, ready, occ sim.Cycle) (start, done sim.Cycle) {
	b := key % uint64(len(m.banks))
	start = ready
	if m.banks[b] > start {
		start = m.banks[b]
	}
	m.banks[b] = start + occ
	return start, start + occ
}

// Read schedules a 64B read of the line identified by key, ready at
// the given cycle, and returns its completion time.
func (m *Memory) Read(key uint64, ready sim.Cycle) sim.Cycle {
	m.Reads++
	start, done := m.acquire(key, ready, m.readCyc)
	m.ReadStall += start - ready
	return done
}

// Write schedules a 64B write and returns its drain (completion)
// time. Writes never delay reads (read priority); they drain through
// the bandwidth-limited write bus. A write issued while the write
// queue is full is first delayed until the queue has room.
func (m *Memory) Write(key uint64, ready sim.Cycle) sim.Cycle {
	m.Writes++
	// Queue-space admission: wait for the write `capacity` ago to
	// have drained.
	if slotFree := m.wq[m.wqHead]; slotFree > ready {
		m.WriteStall += slotFree - ready
		ready = slotFree
	}
	_, done := m.writeBus.Acquire(ready)
	m.wq[m.wqHead] = done
	m.wqHead = (m.wqHead + 1) % len(m.wq)
	if done > m.lastDrain {
		m.lastDrain = done
	}
	return done
}

// DrainTime returns the cycle by which all scheduled writes complete.
func (m *Memory) DrainTime() sim.Cycle { return m.lastDrain }

// AvgWriteStall returns mean write queueing delay in cycles.
func (m *Memory) AvgWriteStall() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.WriteStall) / float64(m.Writes)
}
