package engine

import (
	"plp/internal/addr"
	"plp/internal/bmt"
	"plp/internal/cache"
	"plp/internal/ett"
	"plp/internal/ptt"
	"plp/internal/sim"
	"plp/internal/trace"
)

func cyc(t float64) sim.Cycle {
	if t < 0 {
		return 0
	}
	return sim.Cycle(t)
}

// runOps is the op loop every scheme shares. Each op advances the
// core clock by its instruction gap at the baseline CPI. A load does
// its metadata-side work, or under Config.ReadVerification its
// verification traffic; under the write-back baseline it also looks up
// the data hierarchy. A store that must persist goes to the scheme's
// store step: every store under the write-back baseline or in
// full-memory mode, else every non-stack store (the paper's default
// protection mode). The loop walks each batch of the stream in
// place and ends with the measured region or at a cancellation: it
// polls Config.Cancel before every cancelPollOps-th op and stops ahead
// of that op once the hook has fired.
func (m *machine) runOps(st *opStream, ipc float64, store func(addr.Block)) {
	cpi := 1 / ipc
	writeBack := m.spec.writeBack
	allStores := writeBack || m.cfg.FullMemory
	readVerification, idealMDC := m.cfg.ReadVerification, m.cfg.IdealMDC
	end := m.cfg.Instructions
	poll := cancelPollOps // ops up to and including the next poll
	for st.consumed < end {
		ops := st.ops(end)
		if len(ops) == 0 {
			return
		}
		consumed, k := st.consumed, 0
		for ; k < len(ops) && consumed < end; k++ {
			if poll--; poll == 0 {
				poll = cancelPollOps
				if m.cancelled() {
					st.take(k, consumed)
					return
				}
			}
			op := ops[k]
			consumed += uint64(op.Gap) + 1
			m.coreTime += float64(op.Gap+1) * cpi
			m.att.add(CompCompute, float64(op.Gap+1)*cpi)
			if op.Kind == trace.OpLoad {
				if readVerification {
					m.verifyRead(op.Block, cyc(m.coreTime))
				} else {
					// The load's counter decrypts it: off the critical
					// path (§VI), so only cache occupancy is modelled.
					if ctr := cache.Line(addr.PageOfBlock(op.Block)); m.shared {
						m.ctr.hit(ctr, false)
					} else if !idealMDC {
						m.ctrCache.Access(ctr, false)
					}
					if writeBack {
						m.data.Access(cache.Line(op.Block), false)
					}
				}
				continue
			}
			if allStores || !op.Stack {
				store(op.Block)
			}
		}
		st.take(k, consumed)
	}
}

// admit opens one persist at the core's cycle: it starts the
// critical-path record, takes a WPQ entry, and marks the wait for it.
// It returns the grant time.
func (m *machine) admit() sim.Cycle {
	now := cyc(m.coreTime)
	m.beginPersist(now)
	grant := m.q.Admit(now)
	m.mark(CompWPQ, grant)
	return grant
}

// stall advances the core to the wait point until (if it is ahead of
// the core) and charges the wait to the recorded segments.
func (m *machine) stall(until sim.Cycle) {
	before := m.coreTime
	if float64(until) > before {
		m.coreTime = float64(until)
	}
	m.chargeStall(before, until)
}

// walk schedules one persist's leaf-to-root BMT update of path through
// the PTT's gates, ready at the given cycle, and returns when it
// entered the leaf stage and when its root update completed. A
// pipelined walk (pipeline, phoenix, shadow, supermem_wc) is admitted
// by the table and starts each level once the persist ahead of it has
// finished that level (Table.Persist); a sequential one (secure_WB's
// write-backs, sp, sgxtree, colocated, triad_sel) starts once the
// previous root update completed and runs its levels back to back
// (Table.SequentialPersist). Each level updates its node as nodeUpdate
// does. Under phoenix (writeThrough) the updated node is also written
// to NVM as background traffic: battery-backed write queueing keeps
// the write off the walk's critical path, so it costs write bandwidth
// and queue occupancy, not stage time. Below nodePersistDepth the node
// instead persists on the critical path, and the write's drain gates
// the parent level (sgxtree, triad_sel).
func (m *machine) walk(tab *ptt.Table, path []bmt.Label, ready sim.Cycle, pipelined bool) (leafStart, rootDone sim.Cycle) {
	if pipelined {
		leafStart = tab.Admit(ready)
	} else {
		leafStart = max(ready, tab.Stage(1)) // previous root update
	}
	ideal, macLat, shared := m.cfg.IdealMDC, m.cfg.MACLatency, m.shared
	writeThrough, depth := m.spec.writeThrough, m.nodePersistDepth
	done := leafStart
	for i, label := range path {
		lvl := len(path) - i
		if pipelined {
			done = max(done, tab.Stage(lvl))
		}
		m.mark(CompSched, done)
		if !ideal {
			var hit bool
			if line := bmtLine(label); shared {
				hit = m.bmt.hit(line, true)
			} else {
				hit = m.bmtCache.Access(line, true)
			}
			if !hit {
				done = m.mem.Read(m.lay.BMTLine(label), done)
				m.mark(CompBMTFetch, done)
			}
			done += macLat
			m.mark(CompMAC, done)
		}
		if writeThrough {
			m.mem.Write(m.lay.BMTLine(label), done)
		}
		if i < depth {
			done = m.mem.Write(m.lay.BMTLine(label), done)
			m.mark(CompNVMWrite, done)
		}
		tab.SetStage(lvl, done)
	}
	tab.Retire(ready, done)
	return leafStart, done
}

// runSecureWB models the baseline: write-back caches, no persistency.
// LLC dirty evictions are the only persists; each performs a
// sequential leaf-to-root BMT update in the integrity engine.
func runSecureWB(m *machine, st *opStream, ipc float64, res *Result) {
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.data.OnMemWriteback = func(line cache.Line) {
		blk := addr.Block(line)
		grant := m.admit()
		// A full WPQ back-pressures the eviction, which sits on the
		// miss fill path: the core observes the stall.
		m.stall(grant)
		start := m.metaFetch(blk, grant)
		_, done := m.walk(tab, m.pathOf(blk), start, false)
		m.persistWrites(blk, done)
		m.q.Occupy(done)
		res.Writebacks++
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, blk, grant, done, done)
	}
	m.runOps(st, ipc, func(blk addr.Block) {
		m.data.Access(cache.Line(blk), true)
	})
}

// runUnordered models write-through persistence with Invariant 2
// unenforced (≈ Triad-NVM): every persist's BMT path updates with
// full overlap through the pipelined MAC units, and root updates are
// not ordered, so persists never wait on one another — only on WPQ
// space. Crash recovery is NOT guaranteed (Table II).
func runUnordered(m *machine, st *opStream, ipc float64, res *Result) {
	// The pipelined MAC units sustain one node update per cycle, i.e.
	// one whole path per BMTLevels cycles; with no ordering constraints
	// that issue bandwidth is the only coupling between persists.
	issue := sim.Resource{Initiation: sim.Cycle(m.cfg.BMTLevels)}
	m.runOps(st, ipc, func(blk addr.Block) {
		grant := m.admit()
		m.stall(grant)
		start, _ := issue.Acquire(grant)
		done := m.metaFetch(blk, start)
		for _, label := range m.pathOf(blk) {
			done = m.nodeUpdate(label, done)
		}
		m.persistWrites(blk, done)
		m.q.Occupy(done)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, blk, grant, done, done)
	})
}

// faultAck implements Config.FaultEarlyRootAck: every 7th persist of
// a strict store-persist scheme acknowledges (releases its WPQ entry,
// unblocking the core) at WPQ admission instead of at root completion
// — the persist's acknowledged Done runs ahead of its RootDone in the
// crash log. With the hook off it returns done unchanged.
func (m *machine) faultAck(seq uint64, grant, done sim.Cycle) sim.Cycle {
	if m.cfg.FaultEarlyRootAck && seq%7 == 3 {
		return grant
	}
	return done
}

// runSP models strict persistency with the baseline 2SP mechanism:
// each store's whole tuple — including the sequential leaf-to-root
// BMT update — must persist before the next store may proceed, so the
// core stalls for the full update (§IV-A1). Per-scheme variation comes
// from the spec, not from identity checks: sgxtree and triad_sel set a
// persisted-node depth (walk's critical-path node writes), colocated
// sets the co-location flag.
func runSP(m *machine, st *opStream, ipc float64, res *Result) {
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	colocated := m.spec.colocated
	m.runOps(st, ipc, func(blk addr.Block) {
		grant := m.admit()
		start := grant
		if !colocated {
			start = m.metaFetch(blk, grant)
		}
		_, done := m.walk(tab, m.pathOf(blk), start, false)
		if colocated {
			// One co-located line carries data+counter+MAC.
			m.mergedWrite(m.lay.DataLine(m.aliasBlock(blk)), done)
		} else {
			m.persistWrites(blk, done)
		}
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		m.stall(ack) // strict: store blocks the core
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, blk, grant, ack, done)
	})
}

// runPipeline models PLP mechanism 1: strict persistency with the
// PTT's in-order pipelined BMT updates. The core no longer waits for
// each root update; it stalls only when the WPQ fills (sustained
// throughput: one persist per MAC latency).
func runPipeline(m *machine, st *opStream, ipc float64, res *Result) {
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.runOps(st, ipc, func(blk addr.Block) {
		grant := m.admit()
		start := m.metaFetch(blk, grant)
		leafStart, done := m.walk(tab, m.pathOf(blk), start, true)
		m.persistWrites(blk, done)
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		// Under strict persistency the store holds the front of the
		// persist order until it enters the pipeline's leaf stage. The
		// walk beyond leafStart is off the core's critical path, so
		// chargeStall clamps the recorded segments at leafStart.
		m.stall(leafStart)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, blk, grant, ack, done)
	})
}

// runEpoch models epoch persistency (PLP mechanisms 2 and 3): stores
// buffer in the write-back cache during an epoch; at the epoch
// boundary the epoch's distinct dirty blocks persist with out-of-order
// intra-epoch updates (and optional paired LCA coalescing), pipelined
// across epochs by the ETT.
func runEpoch(m *machine, st *opStream, ipc float64, res *Result) {
	policy := ett.PolicyNone
	if m.spec.coalesce {
		policy = ett.PolicyPaired
		if m.cfg.ChainedCoalescing {
			policy = ett.PolicyChained
		}
	}
	sched := ett.NewScheduler(m.topo, m.cfg.ETTSlots, policy)
	m.ettSched = sched

	m.epochGen, m.epochCur = m.ar.gens(uint64(trace.TotalBlocks))
	m.epochReset() // fresh generation for the first epoch

	// Per-epoch working buffers, reused across epochs. paths holds one
	// update-path view per persist; views into the shared PathTable are
	// stable, while out-of-table leaves (recorded traces) spill into
	// pathSpill, pre-grown per flush so appends never move live views.
	levels := m.cfg.BMTLevels
	var (
		blocks    []addr.Block
		leaves    []bmt.Label
		leafReady []sim.Cycle
		paths     [][]bmt.Label
		pathSpill []bmt.Label
	)
	storesInEpoch := 0
	cost := func(pi, lvl int, start sim.Cycle) sim.Cycle {
		if lvl == levels && leafReady[pi] > start {
			start = leafReady[pi] // counter block must be on chip
		}
		return m.nodeUpdatePiped(paths[pi][levels-lvl], start)
	}

	flush := func() {
		if len(blocks) == 0 {
			storesInEpoch = 0
			return
		}
		// The sfence drains the epoch's dirty lines through the on-chip
		// hierarchy into the WPQ; the core observes the drain.
		m.coreTime += float64(len(blocks) * m.cfg.FlushCyclesPerLine)
		m.att.add(CompFlush, float64(len(blocks)*m.cfg.FlushCyclesPerLine))
		ready := cyc(m.coreTime)
		// WPQ entries for every persist of the epoch.
		grant := ready
		for range blocks {
			if g := m.q.Admit(ready); g > grant {
				grant = g
			}
		}
		leaves = leaves[:0]
		leafReady = leafReady[:0]
		paths = paths[:0]
		pathSpill = pathSpill[:0]
		if need := len(blocks) * levels; cap(pathSpill) < need {
			pathSpill = make([]bmt.Label, 0, need)
		}
		for _, blk := range blocks {
			idx := uint64(addr.PageOfBlock(blk)) % m.topo.Leaves()
			var p []bmt.Label
			if idx < m.paths.Len() {
				p = m.paths.Path(idx)
			} else {
				off := len(pathSpill)
				pathSpill = m.topo.AppendUpdatePath(pathSpill, m.topo.LeafLabel(idx))
				p = pathSpill[off:]
			}
			paths = append(paths, p)
			leaves = append(leaves, p[0])
			leafReady = append(leafReady, m.metaFetch(blk, grant))
		}
		admitted, done, perDone := sched.ScheduleEpoch(grant, leaves, cost)
		for i, blk := range blocks {
			m.persistWrites(blk, perDone[i])
			m.q.Occupy(perDone[i])
			m.persisted(res, blk, grant, perDone[i])
		}
		// The core waits at the epoch boundary only for an ETT slot.
		// The walk's own marks (recorded while scheduling) are not on
		// the core path; relabel the boundary wait explicitly.
		m.beginPersist(ready)
		m.mark(CompWPQ, grant)
		m.mark(CompSched, admitted)
		m.stall(admitted)
		m.epochRetired(res, len(blocks), ready, done)
		blocks = blocks[:0]
		m.epochReset()
		storesInEpoch = 0
	}

	m.runOps(st, ipc, func(blk addr.Block) {
		storesInEpoch++
		if !m.epochSeen(blk) {
			blocks = append(blocks, blk)
		}
		if storesInEpoch >= m.cfg.EpochSize {
			flush()
		}
	})
	if !m.cancelStop {
		// The final partial epoch flushes only when the run completed:
		// a cancelled run abandons its tail.
		flush()
	}
	m.ar.epochCur = m.epochCur
	res.Epochs = sched.Epochs
	res.BMTNodeUpdates = sched.NodeUpdates
	res.BMTUpdatesNoCoal = sched.UpdatesNoCoal
	res.SlotStalls = sched.SlotStalls
	res.EpochLatency = sched.EpochLatency
}

// The rival schemes (see PAPERS.md): directly comparable designs from
// the surrounding literature, on the same machine model. triad_sel
// and phoenix need no runner of their own — they are runSP and
// runPipeline under their spec flags (see their registrations).

// runShadow models Anubis-style shadow tracking: strict persistency
// with pipelined walks, where each persist writes a shadow-table entry
// naming its in-flight metadata update. The entry streams to NVM in
// parallel with the metadata pipeline and must be durable before the
// persist acknowledges (it is the recovery work list), so it gates the
// ack, not the walk. The shadow region is modeled as additional NVM
// write traffic — the write path models bandwidth and queue occupancy,
// not placement.
func runShadow(m *machine, st *opStream, ipc float64, res *Result) {
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.runOps(st, ipc, func(blk addr.Block) {
		grant := m.admit()
		// The shadow entry issues at admission and drains in parallel
		// with the walk; the persist acknowledges only once both the
		// root update and the shadow entry are durable.
		shadow := m.mem.Write(m.lay.DataLine(m.aliasBlock(blk)), grant)
		start := m.metaFetch(blk, grant)
		leafStart, root := m.walk(tab, m.pathOf(blk), start, true)
		m.persistWrites(blk, root)
		done := root
		if shadow > done {
			done = shadow
		}
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		m.stall(leafStart)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, blk, grant, ack, root)
	})
}

// runSuperMemWC models SuperMem-style write coalescing at the
// security-metadata level: strict persistency with pipelined walks,
// where a persist whose BMT leaf equals the previous persist's leaf
// coalesces onto the still-in-flight covering walk instead of starting
// its own — its completion is the covering walk's root completion.
// Because the PTT's root completions are monotone and a coalesced
// persist completes with its covering walk, the persisted state at any
// crash point remains a program-order prefix (GuaranteeStrict).
func runSuperMemWC(m *machine, st *opStream, ipc float64, res *Result) {
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	var lastLeaf bmt.Label
	var lastRootDone sim.Cycle
	haveLast := false
	m.runOps(st, ipc, func(blk addr.Block) {
		grant := m.admit()
		start := m.metaFetch(blk, grant)
		path := m.pathOf(blk)
		leaf := path[0]
		res.BMTUpdatesNoCoal += uint64(m.cfg.BMTLevels)
		var leafStart, done sim.Cycle
		if haveLast && leaf == lastLeaf && lastRootDone > start {
			// Same leaf and the covering walk is still in flight: the
			// update folds into it. No tree work; the persist is done
			// when the covering walk's root lands.
			leafStart, done = start, lastRootDone
			m.mark(CompSched, done)
		} else {
			leafStart, done = m.walk(tab, path, start, true)
			res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		}
		lastLeaf, lastRootDone, haveLast = leaf, done, true
		m.persistWrites(blk, done)
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		m.stall(leafStart)
		m.retire(res, blk, grant, ack, done)
	})
}
