// Package engine is the timing simulator: it runs a synthetic
// benchmark trace against one of the paper's six evaluated schemes
// (Table IV) and reports execution cycles and persist statistics.
//
// The model is timestamp-based (see internal/sim.Resource): the core
// advances by instruction gaps at the benchmark's baseline IPC, and
// every persist walks the machine's shared resources — WPQ entries,
// metadata caches, MAC units, BMT levels, NVM banks — computing
// completion times. Stalls arise from the persist-ordering rules each
// scheme imposes:
//
//	secure_WB   write-back baseline; LLC dirty evictions update the
//	            BMT sequentially; no persistency guarantees.
//	unordered   write-through but Invariant 2 unenforced (≈ Triad-NVM):
//	            BMT paths update with full overlap, roots unordered.
//	sp          strict persistency, sequential leaf-to-root updates;
//	            the core stalls until each persist's root completes.
//	pipeline    strict persistency with the PTT's in-order pipelined
//	            updates (PLP mechanism 1).
//	o3          epoch persistency with intra-epoch out-of-order updates
//	            and cross-epoch pipelining via the ETT (PLP mechanism 2).
//	coalescing  o3 plus paired LCA coalescing (PLP mechanism 3).
//	sgxtree     extension (§IV-D): an SGX-style counter tree where the
//	            whole leaf-to-root path must persist per store.
//
// Beyond the paper's set, the registry (spec.go) carries the rival
// designs from the surrounding literature — triad_sel, phoenix,
// shadow, supermem_wc — each with its own crash-recoverability
// contract and recovery-time model. Scheme dispatch, validation,
// guarantees, and recovery models all come from the single SchemeSpec
// registry; there is no per-scheme switch anywhere in the engine.
package engine

import (
	"fmt"

	"plp/internal/addr"
	"plp/internal/bmt"
	"plp/internal/cache"
	"plp/internal/ett"
	"plp/internal/hier"
	"plp/internal/layout"
	"plp/internal/mac"
	"plp/internal/nvm"
	"plp/internal/ptt"
	"plp/internal/sim"
	"plp/internal/stats"
	"plp/internal/trace"
	"plp/internal/wpq"
)

// Scheme selects the persist mechanism under evaluation.
type Scheme string

// The evaluated schemes (paper Table IV plus the §IV-D extension).
const (
	SchemeSecureWB   Scheme = "secure_WB"
	SchemeUnordered  Scheme = "unordered"
	SchemeSP         Scheme = "sp"
	SchemePipeline   Scheme = "pipeline"
	SchemeO3         Scheme = "o3"
	SchemeCoalescing Scheme = "coalescing"
	SchemeSGXTree    Scheme = "sgxtree"
	// SchemeColocated models the prior-work approach the paper argues
	// is insufficient (§II: Swami et al., Liu et al.): data, counter,
	// and MAC co-located in one line so the non-tree tuple items
	// persist atomically with a single NVM write and no metadata
	// fetches — but the BMT root ordering obligation remains, so the
	// sequential leaf-to-root update still dominates.
	SchemeColocated Scheme = "colocated"
)

// The rival designs from the surrounding literature (see PAPERS.md),
// implemented on the same machine model for a directly comparable
// (performance, recoverability, recovery-time) matrix.
const (
	// SchemeTriadSel models Triad-NVM's selective tree persistence
	// (Awad et al.): strict persistency where the lowest
	// Config.TriadLevels levels of the BMT persist inline with each
	// walk, shrinking recovery to rebuilding only the volatile top of
	// the tree.
	SchemeTriadSel Scheme = "triad_sel"
	// SchemePhoenix models Phoenix's persistently secure counter tree
	// (Alwadi et al.): every counter-tree node update is written
	// through to NVM, but the walks stay pipelined (PTT), so the tree
	// is always recoverable by a constant-work root verification.
	SchemePhoenix Scheme = "phoenix"
	// SchemeShadow models Anubis-style shadow-address tracking (Zubair
	// & Awad): each in-flight metadata update first persists a shadow
	// entry naming it, bounding recovery to replaying the shadow
	// region — work proportional to the in-flight set, not memory.
	SchemeShadow Scheme = "shadow"
	// SchemeSuperMemWC models SuperMem-style write coalescing (Zuo et
	// al.) at the security-metadata level: consecutive persists to the
	// same BMT leaf share one tree walk while the covering walk is
	// still in flight.
	SchemeSuperMemWC Scheme = "supermem_wc"
)

// Config parameterizes one simulation. Zero fields take the paper's
// Table III defaults.
type Config struct {
	Scheme       Scheme
	Instructions uint64 // run length (instructions)
	// Warmup runs this many instructions through the caches before the
	// measured region, without timing — standard simulator practice to
	// exclude cold-start transients. Default 0.
	Warmup uint64

	MACLatency   sim.Cycle // MAC computation latency, processor cycles
	macLatIsZero bool      // distinguishes explicit 0 from default
	BMTLevels    int
	WPQEntries   int
	PTTEntries   int
	ETTSlots     int
	EpochSize    int // persistent stores per epoch
	// TriadLevels is the triad_sel scheme's persisted-level depth: how
	// many leaf-side BMT levels persist inline with every walk
	// (1..BMTLevels). Other schemes ignore it. Default 2, the
	// Triad-NVM paper's recommended operating point.
	TriadLevels int

	CtrCacheKB int
	MACCacheKB int
	BMTCacheKB int
	MDCWays    int
	LLCKB      int
	LLCWays    int

	// IdealMDC models the paper's ideal metadata cache study (Fig. 9):
	// infinite metadata caches that never miss and a zero-cycle MAC.
	IdealMDC bool
	// ChainedCoalescing upgrades the coalescing scheme from the
	// paper's paired hardware policy to the idealized chained (union)
	// policy of Fig. 5 — the optimum the paper deems too costly for
	// hardware. Ablation only.
	ChainedCoalescing bool
	// ReadVerification additionally models the load-side verification
	// traffic: data cache misses fetch from NVM, pull counters and
	// MACs, and walk the BMT up to the first cached (verified) node,
	// on a dedicated verification MAC unit. Per §VI this is overlapped
	// with data use, so it affects occupancy, not core stalls. Ablation
	// only, and meaningful only for cache-resident load streams — the
	// ThrashLLC profiles' loads are worst-case LLC pressure generators
	// with 100% miss rates, which saturate any read path by design.
	ReadVerification bool
	// FullMemory persists stack stores too ("_full" configurations).
	FullMemory bool
	// FlushCyclesPerLine is the on-chip cost of draining one dirty
	// line from the cache hierarchy to the WPQ at an epoch boundary
	// (the sfence drain the core observes under epoch persistency).
	FlushCyclesPerLine int

	// Observer, when non-nil, watches the run: every persist, every
	// epoch flush, a sample point after each, and the run's end (see
	// Observer). Telemetry series, crash logs and event traces are all
	// observers. Observation never alters timing; nil costs one pointer
	// check per persist.
	Observer Observer

	// Arena, when non-nil, supplies the run's large reusable hot-path
	// buffers (write-merge table, epoch membership set, precomputed
	// BMT path table, trace batch buffer, the machine's caches) and,
	// to Run, a recording of the profile's op stream. Sweeps executing
	// many runs hand each worker one arena so the ~100MB of metadata
	// allocates once instead of once per run and a profile's stream is
	// generated once for all its runs; results are bit-identical either
	// way. An arena must not be shared by concurrent runs. Nil
	// allocates private buffers.
	Arena *Arena

	// Cancel, when non-nil, is a cooperative cancellation hook, usually
	// the caller's context: the run polls its Err once every
	// cancelPollOps operations and stops early once that is non-nil,
	// abandoning the remainder of the trace. Polling neither reads nor
	// writes timing state, so an installed hook that never fires leaves
	// the run bit-identical to one without (equivalence-pinned), and
	// nil costs one nil check per operation. A cancelled run's partial
	// Result is not meaningful; callers (internal/jobs, the plp facade)
	// discard it and surface the context error instead.
	Cancel Canceler

	// FaultEarlyRootAck is a fault-injection hook for validating the
	// crash campaign. Under the eight strict store-persist schemes (sp,
	// pipeline, sgxtree, colocated, triad_sel, phoenix, shadow and
	// supermem_wc) every 7th persist acknowledges — releases its WPQ
	// entry and reports completion — at admission time, before its BMT
	// root update finishes. That is precisely the ordering bug the PTT
	// exists to prevent (Invariant 2), and a crash campaign must flag
	// it: the persist's crash log Done runs ahead of its RootDone, so a
	// crash between the two freezes a persisted datum whose root update
	// never reached NVM. Never set outside tests and plpcrash's
	// -fault-early-root-ack.
	FaultEarlyRootAck bool

	NVM nvm.Config
}

// WithMACLatency returns cfg with an explicit MAC latency (required to
// express the Fig. 9 zero-latency point, since 0 means "default").
func (c Config) WithMACLatency(lat sim.Cycle) Config {
	c.MACLatency = lat
	c.macLatIsZero = lat == 0
	return c
}

// Normalized returns the config with every defaulted field filled in
// to its Table III value — the form Run actually simulates.
func (c Config) Normalized() Config {
	c.fill()
	return c
}

// Key returns the config's identity as a cached simulation result:
// the normalized config with its three hooks (Observer, Arena, Cancel)
// cleared, since none of them changes timing, and, for a run without
// a data hierarchy (see readsData), the LLC geometry set to its
// default, since only that hierarchy reads it. Two configs simulate
// identically when their keys are equal, so memoization layers use the
// key as a map key; comparing configs any other way could compare an
// uncomparable hook and panic.
func (c Config) Key() Config {
	c.fill()
	if !c.readsData() {
		c.LLCKB, c.LLCWays = 0, 0
		c.fill()
	}
	c.Observer, c.Arena, c.Cancel = nil, nil, nil
	return c
}

// readsData reports whether a run of c has a data hierarchy: its
// scheme is write-back (secure_WB), whose stores and loads go through
// the hierarchy, or it models ReadVerification, whose loads look their
// blocks up there. No other run reads the hierarchy, so no other run
// builds, warms or restores one, and its LLC geometry changes nothing.
func (c Config) readsData() bool {
	spec := specOf(c.Scheme)
	return spec != nil && spec.writeBack || c.ReadVerification
}

func (c *Config) fill() {
	if c.Scheme == "" {
		c.Scheme = SchemeSecureWB
	}
	if c.Instructions == 0 {
		c.Instructions = 10_000_000
	}
	if c.MACLatency == 0 && !c.macLatIsZero {
		c.MACLatency = 40
	}
	// After filling, MACLatency alone carries the zero-vs-default
	// split; the flag follows it so equal latencies give equal keys.
	c.macLatIsZero = c.MACLatency == 0
	if c.BMTLevels == 0 {
		c.BMTLevels = 9
	}
	if c.WPQEntries == 0 {
		c.WPQEntries = 32
	}
	if c.PTTEntries == 0 {
		c.PTTEntries = 64
	}
	if c.ETTSlots == 0 {
		c.ETTSlots = 2
	}
	if c.EpochSize == 0 {
		c.EpochSize = 32
	}
	if c.TriadLevels == 0 {
		c.TriadLevels = 2
	}
	if c.FlushCyclesPerLine == 0 {
		c.FlushCyclesPerLine = 4
	}
	if c.CtrCacheKB == 0 {
		c.CtrCacheKB = 128
	}
	if c.MACCacheKB == 0 {
		c.MACCacheKB = 128
	}
	if c.BMTCacheKB == 0 {
		c.BMTCacheKB = 128
	}
	if c.MDCWays == 0 {
		c.MDCWays = 8
	}
	if c.LLCKB == 0 {
		c.LLCKB = 4096
	}
	if c.LLCWays == 0 {
		c.LLCWays = 32
	}
}

// Result reports one simulation's outcome.
type Result struct {
	Scheme Scheme
	Bench  string

	Instructions uint64
	Cycles       sim.Cycle
	IPC          float64

	Persists uint64  // tuple persists performed
	PPKI     float64 // persists per kilo-instruction
	Epochs   uint64

	BMTNodeUpdates   uint64
	BMTUpdatesNoCoal uint64 // what a non-coalescing scheme would do
	Writebacks       uint64 // LLC dirty evictions (secure_WB)

	WPQStalls  sim.Cycle
	SlotStalls sim.Cycle

	CtrHitRate float64
	MACHitRate float64
	BMTHitRate float64

	NVMReads, NVMWrites uint64

	// PersistLatency distributes each persist's latency from WPQ
	// admission to root-update completion (cycles).
	PersistLatency stats.Histogram
	// EpochLatency distributes each epoch's latency from WPQ drain to
	// its last root-update completion (epoch-persistency schemes only).
	EpochLatency stats.Histogram
	// WPQWaitLatency distributes per-persist WPQ admission waits.
	WPQWaitLatency stats.Histogram

	// Attribution decomposes Cycles by cause; its components sum
	// exactly to Cycles.
	Attribution Attribution
	// AttribDrift is the float residue between the attributed core-time
	// advances and Cycles before rounding — a consistency check on the
	// timing model (near zero when every stall is labelled).
	AttribDrift float64
}

// CoalescingReduction is the fraction of BMT node updates removed.
func (r Result) CoalescingReduction() float64 {
	if r.BMTUpdatesNoCoal == 0 {
		return 0
	}
	return 1 - float64(r.BMTNodeUpdates)/float64(r.BMTUpdatesNoCoal)
}

// machine bundles the shared hardware models of one run.
type machine struct {
	cfg Config
	// spec is the scheme's registry entry: runner, behavior flags, and
	// contracts all come from it (nil only for unknown schemes, which
	// measure rejects).
	spec *SchemeSpec
	topo *bmt.Topology

	macPipe   sim.Resource // shared pipelined MAC units (OOO schemes)
	macVerify sim.Resource // dedicated verification MAC unit (read path)

	ctrCache *cache.Cache
	macCache *cache.Cache
	bmtCache *cache.Cache
	// shared marks a run that shares its metadata lookups (see
	// lookups.go): it looks the three caches up through ctr, mac and
	// bmt, which record or replay them. Every lookup site tests it and
	// a live run calls its cache directly, since a wrapper in between
	// would cost a call per lookup.
	shared        bool
	ctr, mac, bmt mdc
	// data is the Table III L1/L2/LLC write-back hierarchy, nil for a
	// run that never reads it: only the secure_WB baseline and
	// ReadVerification's loads do (write-through schemes bypass it for
	// stores, and EP schemes track epochs directly).
	data *hier.Hierarchy

	mem *nvm.Memory
	q   *wpq.Queue
	lay layout.Layout
	// aliasBlocks folds the trace's address space onto the layout when
	// an ablation shrinks the tree below full coverage (addresses
	// alias, which is harmless for timing).
	aliasBlocks uint64

	// ar owns the run's big reusable buffers (Config.Arena or a
	// private one).
	ar *Arena

	// lastWrite implements write merging in the memory controller's
	// write queue: a line rewritten while its previous write is still
	// queued coalesces instead of consuming write bandwidth. It is a
	// flat per-line table (index = layout line, value = drain time + 1,
	// 0 = never written): the hot path's most frequent lookup, which as
	// a map both allocated steadily and grew without bound. Only data,
	// counter and MAC lines merge — BMT node writes go straight to NVM —
	// so the table stops at the tree region: its size follows the
	// protected data, not the tree's depth.
	lastWrite []sim.Cycle

	// paths precomputes the leaf-to-root update path of every BMT leaf
	// the synthetic address map can touch; pathOf falls back to
	// pathScratch for leaf indices beyond it (wider recorded traces).
	paths       *bmt.PathTable
	pathScratch []bmt.Label

	// nodePersistDepth (from the spec): path nodes with leaf-first
	// index below it are written to NVM on the persist's critical path
	// (sgxtree: whole path; triad_sel: the lowest TriadLevels levels;
	// 0 for volatile-tree schemes).
	nodePersistDepth int

	// Epoch membership (runEpoch): a generation-stamp set over trace
	// blocks replaces the old per-epoch map — epochGen[b] == epochCur
	// means b is already in the current epoch, and bumping epochCur
	// empties the set without touching memory. epochOver catches
	// blocks beyond the stamp array (recorded traces only).
	epochGen  []uint32
	epochCur  uint32
	epochOver map[addr.Block]struct{}

	// coreTime is the core clock: cycles the core has spent, as a
	// float because instruction gaps advance it at the baseline CPI.
	// The op loop, the stalls and the epoch flush's drain advance it,
	// and the write-back baseline's eviction callback stalls it too.
	coreTime float64

	// Cycle attribution: att accumulates per-component core cycles;
	// segs labels the current persist's critical path from segOrigin,
	// and segLast is its latest mark (see attrib.go).
	att       attrib
	segs      []segMark
	segOrigin sim.Cycle
	segLast   sim.Cycle

	// Probe sources: the scheme runner registers whichever tracking
	// table it drives so the observer's probe can reach it.
	pttTab   *ptt.Table
	ettSched *ett.Scheduler

	// cancelStop latches a fired Config.Cancel hook so the run's tail
	// (the epoch schemes' final flush) knows the stop was a
	// cancellation, not a completed trace.
	cancelStop bool
}

// mergeWindow approximates write-queue residency for write merging.
const mergeWindow sim.Cycle = 1000

const kb = 1024

// newMDC builds one of the discrete metadata caches (counter, MAC,
// BMT) with the given capacity and associativity.
func newMDC(name string, kbs, ways int) *cache.Cache {
	return cache.MustNew(cache.Config{
		Name: name, SizeBytes: kbs * kb, LineBytes: addr.BlockBytes,
		Ways: ways, Policy: cache.WriteBack,
	})
}

func newMachine(cfg Config) *machine {
	m := &machine{
		cfg:  cfg,
		spec: specOf(cfg.Scheme),
		topo: bmt.MustNewTopology(cfg.BMTLevels, 8),
		mem:  nvm.New(cfg.NVM),
		q:    wpq.New(cfg.WPQEntries),
	}
	m.ar = cfg.Arena
	if m.ar == nil {
		m.ar = NewArena()
	}
	m.macPipe = sim.Resource{Latency: cfg.MACLatency, Initiation: 1}
	m.macVerify = sim.Resource{Latency: cfg.MACLatency, Initiation: 1}
	m.ctrCache, m.macCache, m.bmtCache, m.data = m.ar.caches(cfg)
	m.aliasBlocks = uint64(trace.TotalBlocks)
	if covered := m.topo.Leaves() * addr.BlocksPerPage; m.aliasBlocks > covered {
		m.aliasBlocks = covered
	}
	m.lay = layout.MustNew(m.aliasBlocks, m.topo)
	m.lastWrite = m.ar.cycles(m.lay.BMTBase)
	// One BMT leaf per encryption page: precompute the paths of every
	// leaf index the synthetic address map can reach (min of the page
	// count and, for shallow ablation trees, the whole leaf set).
	nPaths := (uint64(trace.TotalBlocks) + addr.BlocksPerPage - 1) / addr.BlocksPerPage
	if leaves := m.topo.Leaves(); leaves < nPaths {
		nPaths = leaves
	}
	m.paths = m.ar.pathTable(m.topo, nPaths)
	m.pathScratch = make([]bmt.Label, 0, cfg.BMTLevels)
	if m.spec != nil {
		m.nodePersistDepth = m.spec.depth(cfg)
	}
	return m
}

// pathOf returns blk's leaf-to-root update path (length BMTLevels,
// leaf first). Lookups hit the precomputed table; leaf indices beyond
// it fall back to a scratch buffer that stays valid only until the
// next pathOf call (the epoch scheduler, which holds several paths at
// once, keeps its own spill buffer instead).
func (m *machine) pathOf(b addr.Block) []bmt.Label {
	idx := uint64(addr.PageOfBlock(b)) % m.topo.Leaves()
	if idx < m.paths.Len() {
		return m.paths.Path(idx)
	}
	m.pathScratch = m.topo.AppendUpdatePath(m.pathScratch[:0], m.topo.LeafLabel(idx))
	return m.pathScratch
}

// epochSeen reports whether b is already a member of the current
// epoch, stamping it in if not.
func (m *machine) epochSeen(b addr.Block) bool {
	if i := uint64(b); i < uint64(len(m.epochGen)) {
		if m.epochGen[i] == m.epochCur {
			return true
		}
		m.epochGen[i] = m.epochCur
		return false
	}
	if m.epochOver == nil {
		m.epochOver = make(map[addr.Block]struct{})
	}
	if _, dup := m.epochOver[b]; dup {
		return true
	}
	m.epochOver[b] = struct{}{}
	return false
}

// epochReset empties the epoch membership set by advancing the
// generation (constant time; the stamp array is untouched). Stamp 0 is
// reserved for "never stamped", so a counter wrap clears and restarts.
func (m *machine) epochReset() {
	m.epochCur++
	if m.epochCur == 0 {
		clear(m.epochGen)
		m.epochCur = 1
	}
	if len(m.epochOver) > 0 {
		clear(m.epochOver)
	}
}

// leafOf maps a data block to its BMT leaf label (one leaf per
// encryption page).
func (m *machine) leafOf(b addr.Block) bmt.Label {
	return m.topo.LeafLabel(uint64(addr.PageOfBlock(b)) % m.topo.Leaves())
}

// bmtLine maps a node label to its BMT-cache line (eight 8-byte node
// hashes per 64-byte line).
func bmtLine(l bmt.Label) cache.Line { return cache.Line(uint64(l) / 8) }

// aliasBlock folds a data block onto the covered address range.
func (m *machine) aliasBlock(b addr.Block) addr.Block {
	return addr.Block(uint64(b) % m.aliasBlocks)
}

// nodeUpdate models one BMT node update: fetch the node on a BMT-cache
// miss, then recompute its MAC. The PTT walks (walk) inline the same
// update; runUnordered calls it per level.
func (m *machine) nodeUpdate(label bmt.Label, start sim.Cycle) sim.Cycle {
	if m.cfg.IdealMDC {
		return start // free metadata, zero-latency MAC
	}
	ready := start
	var hit bool
	if line := bmtLine(label); m.shared {
		hit = m.bmt.hit(line, true)
	} else {
		hit = m.bmtCache.Access(line, true)
	}
	if !hit {
		ready = m.mem.Read(m.lay.BMTLine(label), ready)
		m.mark(CompBMTFetch, ready)
	}
	done := ready + m.cfg.MACLatency
	m.mark(CompMAC, done)
	return done
}

// nodeUpdatePiped is nodeUpdate through the shared pipelined MAC units
// (OOO schemes: one new MAC may start each cycle).
func (m *machine) nodeUpdatePiped(label bmt.Label, start sim.Cycle) sim.Cycle {
	if m.cfg.IdealMDC {
		return start
	}
	ready := start
	var hit bool
	if line := bmtLine(label); m.shared {
		hit = m.bmt.hit(line, true)
	} else {
		hit = m.bmtCache.Access(line, true)
	}
	if !hit {
		ready = m.mem.Read(m.lay.BMTLine(label), ready)
	}
	_, done := m.macPipe.Acquire(ready)
	return done
}

// metaFetch performs the counter- and MAC-cache accesses of one
// persist; the returned time is when the persist's leaf update can
// begin (the counter block must be on chip).
func (m *machine) metaFetch(b addr.Block, ready sim.Cycle) sim.Cycle {
	if m.cfg.IdealMDC {
		return ready
	}
	ab := m.aliasBlock(b)
	// The caches are independent of each other and of the NVM model,
	// so both lookups may come before the counter's fetch.
	ctrLine, macLine := cache.Line(addr.PageOfBlock(b)), cache.Line(mac.BlockOf(b))
	var ctrHit, macHit bool
	if m.shared {
		ctrHit, macHit = m.ctr.hit(ctrLine, true), m.mac.hit(macLine, true)
	} else {
		ctrHit, macHit = m.ctrCache.Access(ctrLine, true), m.macCache.Access(macLine, true)
	}
	if !ctrHit {
		ready = m.mem.Read(m.lay.CtrLine(addr.PageOfBlock(ab)), ready)
		m.mark(CompMeta, ready)
	}
	if !macHit {
		// The MAC block fetch overlaps the BMT walk; it delays neither
		// the leaf update nor (in practice) the root, so only occupancy
		// is modelled.
		m.mem.Read(m.lay.MACLine(ab), ready)
	}
	return ready
}

// mergedWrite schedules an NVM write of the given line unless a write
// to the same line is still resident in the write queue (write
// merging). It returns the line's drain time.
func (m *machine) mergedWrite(line uint64, at sim.Cycle) sim.Cycle {
	last := m.lastWrite[line]
	if last != 0 && at < last-1+mergeWindow {
		return last - 1 // coalesced with the queued write
	}
	done := m.mem.Write(line, at)
	if last == 0 {
		// First touch this run: record it so the arena can zero just
		// this entry on reuse instead of sweeping the whole table.
		m.ar.dirty = append(m.ar.dirty, line)
	}
	m.lastWrite[line] = done + 1
	return done
}

// persistWrites schedules the NVM writes of a completed persist
// (ciphertext, counter block, MAC block), returning the drain time of
// the latest. The WPQ sits inside the ADR persist domain (§II), so
// entries release at persist completion; the drain is background
// traffic. The metadata layout keeps data, counter, and MAC lines in
// disjoint NVM regions, so they never merge with one another.
func (m *machine) persistWrites(b addr.Block, at sim.Cycle) sim.Cycle {
	ab := m.aliasBlock(b)
	d1 := m.mergedWrite(m.lay.DataLine(ab), at)
	d2 := m.mergedWrite(m.lay.CtrLine(addr.PageOfBlock(ab)), at)
	d3 := m.mergedWrite(m.lay.MACLine(ab), at)
	done := d1
	if d2 > done {
		done = d2
	}
	if d3 > done {
		done = d3
	}
	return done
}

// warm streams instructions through the data hierarchy, if the run has
// one, and the counter cache without timing, populating them before
// the measured region. An IdealMDC run has no counter cache to warm,
// and a replaying run (see shareLookups) never reads its own.
func (m *machine) warm(st *opStream, instrs uint64) {
	ctr := m.ctrCache
	if m.cfg.IdealMDC || m.ctr.replay {
		ctr = nil
	}
	warmCaches(m.data, ctr, st, instrs)
}

// warmCaches is the warm-up loop shared by RunSource and checkpoint
// construction: it streams instructions through the data hierarchy
// and counter cache, each unless nil, without timing, walking each
// batch in place. Warm-up state therefore depends on exactly the
// stream prefix and these two structures' geometry — the fields
// warmupConfig keeps. It fills under its own bound, so it leaves no
// filled op unconsumed.
func warmCaches(data *hier.Hierarchy, ctr *cache.Cache, st *opStream, instrs uint64) {
	for st.consumed < instrs {
		ops := st.ops(instrs)
		if len(ops) == 0 {
			return
		}
		consumed, k := st.consumed, 0
		for ; k < len(ops) && consumed < instrs; k++ {
			op := ops[k]
			consumed += uint64(op.Gap) + 1
			if data != nil {
				data.Access(cache.Line(op.Block), op.Kind == trace.OpStore)
			}
			if ctr != nil {
				ctr.Access(cache.Line(addr.PageOfBlock(op.Block)), false)
			}
		}
		st.take(k, consumed)
	}
}

// verifyRead models the load-side verification *traffic* when
// Config.ReadVerification is set: a data-hierarchy miss fetches the
// block, its counter and MAC (when not cached), and the uncached
// prefix of its BMT path, each fetch MAC-checked on a dedicated
// verification unit. Per §VI verification is overlapped with data use,
// so nothing here stalls the core or the update path: the ablation
// quantifies NVM read traffic and verification-engine occupancy.
// Metadata caches are consulted without allocation so the persist
// side's working set (and the paper's calibration) is undisturbed —
// the traffic reported is therefore an upper bound.
func (m *machine) verifyRead(b addr.Block, at sim.Cycle) {
	if m.data.Access(cache.Line(b), false) < m.data.Depth() {
		return // cache hit: verified long ago
	}
	// All fetches of the verification flow issue independently at the
	// load time (the memory controller pipelines them); what matters
	// here is occupancy, not the serialized verification latency, which
	// is hidden behind data use anyway.
	ab := m.aliasBlock(b)
	m.mem.Read(m.lay.DataLine(ab), at)
	if m.cfg.IdealMDC {
		return
	}
	if !m.ctrCache.Contains(cache.Line(addr.PageOfBlock(b))) {
		m.mem.Read(m.lay.CtrLine(addr.PageOfBlock(ab)), at)
	}
	if !m.macCache.Contains(cache.Line(mac.BlockOf(b))) {
		m.mem.Read(m.lay.MACLine(ab), at)
	}
	// Data MAC check on the verification unit.
	m.macVerify.Acquire(at)
	// Tree walk up to the first cached (already verified) node.
	for _, label := range m.pathOf(b) {
		if m.bmtCache.Contains(bmtLine(label)) {
			break
		}
		m.mem.Read(m.lay.BMTLine(label), at)
		m.macVerify.Acquire(at)
	}
}

// Run simulates profile prof under cfg. With an arena, the run reads
// prof's stream from the arena's recording, recording what it reads
// first, and a sharing scheme's run also shares its metadata-cache
// lookups there (see Arena); without one it generates the stream
// privately.
func Run(cfg Config, prof trace.Profile) Result {
	if cfg.Arena != nil {
		return simulate(cfg, prof.Name, prof.IPC, cfg.Arena.rec.Reader(prof), &prof)
	}
	return RunSource(cfg, prof.Name, prof.IPC, trace.NewGenerator(prof))
}

// RunSource simulates an arbitrary operation stream (a synthetic
// generator or a recorded trace) under cfg. ipc is the baseline core
// IPC of the traced workload.
func RunSource(cfg Config, bench string, ipc float64, src trace.Source) Result {
	return simulate(cfg, bench, ipc, src, nil)
}

// simulate is RunSource. When src reads the arena's recording of a
// profile's stream, recorded names that profile, so the run may share
// its metadata lookups (see shareLookups); an arbitrary source has no
// stream identity to share them under.
func simulate(cfg Config, bench string, ipc float64, src trace.Source, recorded *trace.Profile) Result {
	cfg.fill()
	if ipc <= 0 {
		ipc = 1
	}
	m := newMachine(cfg)
	if recorded != nil {
		m.shareLookups(*recorded)
	}

	st := newOpStream(src, m.ar.opBuf(opBatch))
	if cfg.Warmup > 0 {
		m.warm(st, cfg.Warmup)
		m.cfg.Instructions += cfg.Warmup
	}

	return m.measure(st, bench, ipc)
}

// measure runs the machine's measured region — the scheme-specific
// timing loop over the remaining op stream — and finalizes the Result.
// The stream must already be past the warm-up prefix (and
// m.cfg.Instructions raised by the warm-up's instructions), whether it
// got there by streaming through warm() or by Checkpoint.Resume.
func (m *machine) measure(st *opStream, bench string, ipc float64) Result {
	var res Result
	res.Scheme = m.cfg.Scheme
	res.Bench = bench

	if m.spec == nil {
		panic(fmt.Sprintf("engine: unknown scheme %q", m.cfg.Scheme))
	}
	m.spec.run(m, st, ipc, &res)
	m.closeLookups()

	res.Cycles = cyc(m.coreTime)
	res.Instructions = m.cfg.Instructions - m.cfg.Warmup
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.PPKI = float64(res.Persists) / (float64(res.Instructions) / 1000)
	res.WPQStalls = m.q.FullStalls
	res.WPQWaitLatency = m.q.WaitLatency
	res.Attribution, res.AttribDrift = m.att.finalize(res.Cycles)
	res.CtrHitRate, res.MACHitRate, res.BMTHitRate = m.hitRates()
	res.NVMReads = m.mem.Reads
	res.NVMWrites = m.mem.Writes
	if obs := m.cfg.Observer; obs != nil {
		// The final probe carries the run totals, so a telemetry
		// series' window deltas sum exactly to the Result counters.
		obs.End(Probe{res.Cycles, m, &res})
	}
	return res
}
