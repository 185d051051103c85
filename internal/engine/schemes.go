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

func maxf(a float64, b sim.Cycle) float64 {
	if fb := float64(b); fb > a {
		return fb
	}
	return a
}

// The sequential schemes drive the PTT with the machine's per-run
// seqCost (see newMachine): each persist sets m.curPath to its update
// path and the per-level callback applies m.levelNode — the old
// per-persist closure pair, flattened so the steady-state loop does
// not allocate.

// runSecureWB models the baseline: write-back caches, no persistency.
// LLC dirty evictions are the only persists; each performs a
// sequential leaf-to-root BMT update in the integrity engine.
func runSecureWB(m *machine, st *opStream, ipc float64, res *Result) {
	cpi := 1 / ipc
	coreTime := 0.0
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.levelNode = m.nodeUpdate

	m.data.OnMemWriteback = func(line cache.Line) {
		blk := addr.Block(line)
		m.beginPersist(cyc(coreTime))
		grant := m.q.Admit(cyc(coreTime))
		m.mark(CompWPQ, grant)
		// A full WPQ back-pressures the eviction, which sits on the
		// miss fill path: the core observes the stall.
		before := coreTime
		coreTime = maxf(coreTime, grant)
		m.chargeStall(before, grant)
		start := m.metaFetch(blk, grant)
		m.curPath = m.pathOf(blk)
		done := tab.SequentialPersist(start, m.seqCost)
		m.persistWrites(blk, done)
		m.q.Occupy(done)
		res.Writebacks++
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, blk, grant, done, done, coreTime)
	}

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
				m.data.Access(cache.Line(op.Block), false)
			}
		} else {
			m.data.Access(cache.Line(op.Block), true)
		}
	}
	res.Cycles = cyc(coreTime)
}

// runUnordered models write-through persistence with Invariant 2
// unenforced (≈ Triad-NVM): every persist's BMT path updates with
// full overlap through the pipelined MAC units, and root updates are
// not ordered, so persists never wait on one another — only on WPQ
// space. Crash recovery is NOT guaranteed (Table II).
func runUnordered(m *machine, st *opStream, ipc float64, res *Result) {
	cpi := 1 / ipc
	coreTime := 0.0
	// The pipelined MAC units sustain one node update per cycle, i.e.
	// one whole path per BMTLevels cycles; with no ordering constraints
	// that issue bandwidth is the only coupling between persists.
	issue := sim.Resource{Initiation: sim.Cycle(m.cfg.BMTLevels)}

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
			}
			continue
		}
		if !m.cfg.mustPersist(op) {
			continue
		}
		m.beginPersist(cyc(coreTime))
		grant := m.q.Admit(cyc(coreTime))
		m.mark(CompWPQ, grant)
		before := coreTime
		coreTime = maxf(coreTime, grant)
		m.chargeStall(before, grant)
		start, _ := issue.Acquire(grant)
		done := m.metaFetch(op.Block, start)
		for _, label := range m.pathOf(op.Block) {
			done = m.nodeUpdate(label, done)
		}
		m.persistWrites(op.Block, done)
		m.q.Occupy(done)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, op.Block, grant, done, done, coreTime)
	}
	res.Cycles = cyc(coreTime)
}

// faultAck implements Config.FaultEarlyRootAck: every 7th persist of
// the sp and pipeline schemes acknowledges (releases its WPQ entry,
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
// persisted-node depth (the seqCost write-through), colocated sets the
// co-location flag.
func runSP(m *machine, st *opStream, ipc float64, res *Result) {
	cpi := 1 / ipc
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	coreTime := 0.0
	colocated := m.spec.colocated
	m.levelNode = m.nodeUpdate

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
			}
			continue
		}
		if !m.cfg.mustPersist(op) {
			continue
		}
		m.beginPersist(cyc(coreTime))
		grant := m.q.Admit(cyc(coreTime))
		m.mark(CompWPQ, grant)
		start := grant
		if !colocated {
			start = m.metaFetch(op.Block, grant)
		}
		m.curPath = m.pathOf(op.Block)
		done := tab.SequentialPersist(start, m.seqCost)
		if colocated {
			// One co-located line carries data+counter+MAC.
			m.mergedWrite(m.lay.DataLine(m.aliasBlock(op.Block)), done)
		} else {
			m.persistWrites(op.Block, done)
		}
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		before := coreTime
		coreTime = maxf(coreTime, ack) // strict: store blocks the core
		m.chargeStall(before, ack)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, op.Block, grant, ack, done, coreTime)
	}
	res.Cycles = cyc(coreTime)
}

// runPipeline models PLP mechanism 1: strict persistency with the
// PTT's in-order pipelined BMT updates. The core no longer waits for
// each root update; it stalls only when the WPQ fills (sustained
// throughput: one persist per MAC latency).
func runPipeline(m *machine, st *opStream, ipc float64, res *Result) {
	cpi := 1 / ipc
	coreTime := 0.0
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.levelNode = m.nodeUpdate
	if m.spec.writeThrough {
		m.levelNode = m.nodeWriteThrough
	}

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
			}
			continue
		}
		if !m.cfg.mustPersist(op) {
			continue
		}
		m.beginPersist(cyc(coreTime))
		grant := m.q.Admit(cyc(coreTime))
		m.mark(CompWPQ, grant)
		start := m.metaFetch(op.Block, grant)
		m.curPath = m.pathOf(op.Block)
		leafStart, done := tab.Persist(start, m.seqCost)
		m.persistWrites(op.Block, done)
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		// Under strict persistency the store holds the front of the
		// persist order until it enters the pipeline's leaf stage. The
		// walk beyond leafStart is off the core's critical path, so
		// chargeStall clamps the recorded segments at leafStart.
		before := coreTime
		coreTime = maxf(coreTime, leafStart)
		m.chargeStall(before, leafStart)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, op.Block, grant, ack, done, coreTime)
	}
	res.Cycles = cyc(coreTime)
}

// runEpoch models epoch persistency (PLP mechanisms 2 and 3): stores
// buffer in the write-back cache during an epoch; at the epoch
// boundary the epoch's distinct dirty blocks persist with out-of-order
// intra-epoch updates (and optional paired LCA coalescing), pipelined
// across epochs by the ETT.
func runEpoch(m *machine, st *opStream, ipc float64, res *Result) {
	cpi := 1 / ipc
	coreTime := 0.0
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
		coreTime += float64(len(blocks) * m.cfg.FlushCyclesPerLine)
		m.att.add(CompFlush, float64(len(blocks)*m.cfg.FlushCyclesPerLine))
		ready := cyc(coreTime)
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
		before := coreTime
		coreTime = maxf(coreTime, admitted)
		m.chargeStall(before, admitted)
		m.epochRetired(res, len(blocks), ready, done, coreTime)
		blocks = blocks[:0]
		m.epochReset()
		storesInEpoch = 0
	}

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
			}
			continue
		}
		if !m.cfg.mustPersist(op) {
			continue
		}
		storesInEpoch++
		if !m.epochSeen(op.Block) {
			blocks = append(blocks, op.Block)
		}
		if storesInEpoch >= m.cfg.EpochSize {
			flush()
		}
	}
	if !m.crashed(coreTime) && !m.cancelStop {
		// The final partial epoch flushes only when the run completed:
		// at a crash the buffered dirty lines are still on chip and die
		// with the caches, and a cancelled run abandons its tail.
		flush()
	}
	m.ar.epochCur = m.epochCur
	res.Cycles = cyc(coreTime)
	res.Epochs = sched.Epochs
	res.BMTNodeUpdates = sched.NodeUpdates
	res.BMTUpdatesNoCoal = sched.UpdatesNoCoal
	res.SlotStalls = sched.SlotStalls
	res.EpochLatency = sched.EpochLatency
}

// The rival schemes (see PAPERS.md): directly comparable designs from
// the surrounding literature, on the same machine model.

// runTriadSel models Triad-NVM's selective tree persistence: the 2SP
// strict-persistency discipline of runSP, with the lowest TriadLevels
// BMT levels written through to NVM on the walk's critical path (the
// spec's persistDepth drives seqCost). Recovery then rebuilds only the
// volatile top of the tree.
func runTriadSel(m *machine, st *opStream, ipc float64, res *Result) {
	runSP(m, st, ipc, res)
}

// runPhoenix models Phoenix's persistently secure counter tree: walks
// stay pipelined through the PTT exactly as in runPipeline, but every
// node update is additionally written through to NVM (the spec's
// writeThrough flag selects nodeWriteThrough as the level updater), so
// the tree survives power loss and recovery is a root verification.
// The writes ride the battery-backed write queue off the walk's
// critical path — Phoenix's design point — so the cost shows up as
// NVM write traffic and queue occupancy, not core serialization.
func runPhoenix(m *machine, st *opStream, ipc float64, res *Result) {
	runPipeline(m, st, ipc, res)
}

// runShadow models Anubis-style shadow tracking: strict persistency
// with pipelined walks, where each persist writes a shadow-table entry
// naming its in-flight metadata update. The entry streams to NVM in
// parallel with the metadata pipeline and must be durable before the
// persist acknowledges (it is the recovery work list), so it gates the
// ack, not the walk. The shadow region is modeled as additional NVM
// write traffic — the write path models bandwidth and queue occupancy,
// not placement.
func runShadow(m *machine, st *opStream, ipc float64, res *Result) {
	cpi := 1 / ipc
	coreTime := 0.0
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.levelNode = m.nodeUpdate

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
			}
			continue
		}
		if !m.cfg.mustPersist(op) {
			continue
		}
		m.beginPersist(cyc(coreTime))
		grant := m.q.Admit(cyc(coreTime))
		m.mark(CompWPQ, grant)
		// The shadow entry issues at admission and drains in parallel
		// with the walk; the persist acknowledges only once both the
		// root update and the shadow entry are durable.
		shadow := m.mem.Write(m.lay.DataLine(m.aliasBlock(op.Block)), grant)
		start := m.metaFetch(op.Block, grant)
		m.curPath = m.pathOf(op.Block)
		leafStart, root := tab.Persist(start, m.seqCost)
		m.persistWrites(op.Block, root)
		done := root
		if shadow > done {
			done = shadow
		}
		ack := m.faultAck(res.Persists, grant, done)
		m.q.Occupy(ack)
		before := coreTime
		coreTime = maxf(coreTime, leafStart)
		m.chargeStall(before, leafStart)
		res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		m.retire(res, op.Block, grant, ack, root, coreTime)
	}
	res.Cycles = cyc(coreTime)
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
	cpi := 1 / ipc
	coreTime := 0.0
	tab := ptt.New(m.cfg.BMTLevels, m.cfg.PTTEntries)
	m.pttTab = tab
	m.levelNode = m.nodeUpdate
	var lastLeaf bmt.Label
	var lastRootDone sim.Cycle
	haveLast := false

	for st.progress() < m.cfg.Instructions {
		if m.stopNow(coreTime) {
			break
		}
		op := st.next()
		coreTime += float64(op.Gap+1) * cpi
		m.att.add(CompCompute, float64(op.Gap+1)*cpi)
		if op.Kind == trace.OpLoad {
			if m.cfg.ReadVerification {
				m.verifyRead(op.Block, cyc(coreTime))
			} else {
				m.loadAccess(op.Block)
			}
			continue
		}
		if !m.cfg.mustPersist(op) {
			continue
		}
		m.beginPersist(cyc(coreTime))
		grant := m.q.Admit(cyc(coreTime))
		m.mark(CompWPQ, grant)
		start := m.metaFetch(op.Block, grant)
		m.curPath = m.pathOf(op.Block)
		leaf := m.curPath[0]
		res.BMTUpdatesNoCoal += uint64(m.cfg.BMTLevels)
		var leafStart, done sim.Cycle
		if haveLast && leaf == lastLeaf && lastRootDone > start {
			// Same leaf and the covering walk is still in flight: the
			// update folds into it. No tree work; the persist is done
			// when the covering walk's root lands.
			leafStart, done = start, lastRootDone
			m.mark(CompSched, done)
		} else {
			leafStart, done = tab.Persist(start, m.seqCost)
			res.BMTNodeUpdates += uint64(m.cfg.BMTLevels)
		}
		lastLeaf, lastRootDone, haveLast = leaf, done, true
		m.persistWrites(op.Block, done)
		m.q.Occupy(done)
		before := coreTime
		coreTime = maxf(coreTime, leafStart)
		m.chargeStall(before, leafStart)
		m.retire(res, op.Block, grant, done, done, coreTime)
	}
	res.Cycles = cyc(coreTime)
}
