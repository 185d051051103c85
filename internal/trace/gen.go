package trace

import (
	"math"

	"plp/internal/addr"
	"plp/internal/xrand"
)

// OpKind distinguishes trace operations.
type OpKind uint8

const (
	// OpStore is a store (the persist-relevant operation).
	OpStore OpKind = iota
	// OpLoad is a load (LLC and metadata-cache pressure only).
	OpLoad
)

// Op is one memory operation of the synthetic instruction stream.
// Block leads so the narrower fields pack behind it: 16 bytes per op.
type Op struct {
	// Block is the 64B block accessed.
	Block addr.Block
	// Gap is the number of non-memory instructions preceding this op.
	Gap uint32
	// Kind is the operation type.
	Kind OpKind
	// Stack marks stores to the stack segment (not persisted in the
	// paper's default protection mode).
	Stack bool
}

// Address-map carving of the heap for the synthetic streams (block
// numbers). Streams are placed in disjoint ranges so their cache and
// BMT footprints interact only through capacity, as in a real program.
const (
	stackBlocks    = 64      // hot stack frame working set
	historySize    = 512     // ring of recent non-stack stores for reuse
	lagMean        = 16.0    // mean reuse distance (stores) of repeats
	residentBlocks = 1 << 11 // 2K blocks = 128KB hot store set (stays LLC-resident)
	streamBlocks   = 1 << 22 // 4M blocks = 256MB streaming store region
	loadBlocks     = 1 << 22 // streaming load region (thrashing loads)

	residentBase = 0
	streamBase   = residentBase + residentBlocks
	loadBase     = streamBase + streamBlocks
	stackBase    = loadBase + loadBlocks
)

// TotalBlocks is the number of blocks the synthetic address map spans;
// the BMT must cover TotalBlocks/addr.BlocksPerPage pages.
const TotalBlocks = stackBase + stackBlocks

// Source is a stream of operations driving the timing simulator: the
// synthetic Generator, or a recorded trace (internal/tracefile).
type Source interface {
	// Next produces the next operation.
	Next() Op
	// Progress returns the number of instructions represented so far.
	Progress() uint64
}

// Generator lazily produces the operation stream of one benchmark.
// It is deterministic for a given profile.
type Generator struct {
	p   Profile
	rng *xrand.RNG

	memPKI    float64
	storeFrac float64
	meanGap   float64
	// repeatScale modulates the reuse probability (phased sources);
	// 1 leaves the profile's calibrated value unchanged.
	repeatScale float64

	// Per-profile constants hoisted out of the per-op path. They are
	// pure functions of the profile (and repeatScale), recomputed only
	// when repeatScale changes; the op stream is bit-identical to
	// evaluating them per op.
	stackFrac  float64
	streamProb float64
	repeatBase float64 // (1 - distinctFrac) / P(lag <= 32)
	pRepeat    float64 // repeatBase * repeatScale, clamped
	gapGeom    xrand.Geom
	lagGeom    xrand.Geom

	history    [historySize]addr.Block // ring of recent non-stack stores
	historyLen int
	historyPos int

	streamPtr addr.Block
	loadPtr   addr.Block
	stackPtr  addr.Block

	// Emitted counts operations produced; Instructions counts the
	// instructions represented (gaps + ops).
	Emitted      uint64
	Instructions uint64
	Stores       uint64
	StackStores  uint64
}

// NewGenerator creates a generator for profile p.
func NewGenerator(p Profile) *Generator {
	g := &Generator{p: p, rng: xrand.New(p.Seed), repeatScale: 1}
	g.memPKI = p.StoresPKI() + p.LoadsPKI
	if g.memPKI <= 0 {
		g.memPKI = 1
	}
	g.storeFrac = p.StoresPKI() / g.memPKI
	g.meanGap = 1000/g.memPKI - 1
	if g.meanGap < 0 {
		g.meanGap = 0
	}
	g.stackFrac = p.StackFrac()
	g.streamProb = p.StreamProb()
	r := 1 - p.EpochRepeatProb() // distinct fraction target at 32
	pLe32 := 1 - math.Pow(1-1/lagMean, 32)
	g.repeatBase = (1 - r) / pLe32
	g.gapGeom = xrand.NewGeom(g.meanGap + 1)
	g.lagGeom = xrand.NewGeom(lagMean)
	g.setRepeatScale(1)
	return g
}

// setRepeatScale updates the reuse-probability modulation (phased
// sources) and refreshes the derived per-store constant.
func (g *Generator) setRepeatScale(s float64) {
	g.repeatScale = s
	p := g.repeatBase * s
	if p > 0.98 {
		p = 0.98
	}
	if p < 0 {
		p = 0
	}
	g.pRepeat = p
}

// Profile returns the generating profile.
func (g *Generator) Profile() Profile { return g.p }

// gap draws the instruction gap before the next op.
func (g *Generator) gap() uint32 {
	if g.meanGap <= 0 {
		return 0
	}
	// Geometric around the mean keeps arrivals irregular but
	// rate-accurate.
	return uint32(g.gapGeom.Sample(g.rng) - 1)
}

func (g *Generator) pushHistory(b addr.Block) {
	g.history[g.historyPos] = b
	g.historyPos = (g.historyPos + 1) % historySize
	if g.historyLen < historySize {
		g.historyLen++
	}
}

// lagRepeat returns the block stored `lag` non-stack stores ago.
func (g *Generator) lagRepeat(lag int) addr.Block {
	if lag > g.historyLen {
		lag = g.historyLen
	}
	idx := (g.historyPos - lag + historySize) % historySize
	return g.history[idx]
}

// nonStackStore draws the next non-stack store address using the
// three-way locality mix: repeat a recently stored block at a
// geometric reuse distance (so the distinct-block rate shrinks with
// epoch size, as in the paper's Fig. 11), stream to a fresh block
// (dirty-line creation, setting the secure_WB write-back rate), or
// revisit the LLC-resident set.
func (g *Generator) nonStackStore() addr.Block {
	pRepeat := g.pRepeat
	pStream := g.streamProb
	x := g.rng.Float64()
	var b addr.Block
	switch {
	case x < pRepeat && g.historyLen > 0:
		b = g.lagRepeat(g.lagGeom.Sample(g.rng))
	case x < pRepeat+pStream:
		b = addr.Block(streamBase) + g.streamPtr
		g.streamPtr = (g.streamPtr + 1) % streamBlocks
	default:
		b = addr.Block(residentBase + g.rng.Intn(residentBlocks))
	}
	g.pushHistory(b)
	return b
}

// Next produces the next operation. It never ends; callers bound runs
// by instruction count. (The per-store repeat probability follows the
// geometric-lag model: a store is distinct within a 32-store window
// unless it is a repeat with lag <= 32, so r = 1 - p*P(lag<=32) and
// p = (1-r)/P(lag<=32) — precomputed into pRepeat at construction.)
func (g *Generator) Next() Op {
	op := Op{Gap: g.gap()}
	if g.rng.Float64() < g.storeFrac {
		op.Kind = OpStore
		g.Stores++
		if g.rng.Float64() < g.stackFrac {
			op.Stack = true
			g.StackStores++
			op.Block = addr.Block(stackBase) + g.stackPtr
			g.stackPtr = (g.stackPtr + 1) % stackBlocks
		} else {
			op.Block = g.nonStackStore()
		}
	} else {
		op.Kind = OpLoad
		if g.p.ThrashLLC {
			op.Block = addr.Block(loadBase) + g.loadPtr
			g.loadPtr = (g.loadPtr + 1) % loadBlocks
		} else {
			op.Block = addr.Block(residentBase + g.rng.Intn(residentBlocks))
		}
	}
	g.Emitted++
	g.Instructions += uint64(op.Gap) + 1
	return op
}

// Progress returns the number of instructions represented so far,
// satisfying Source.
func (g *Generator) Progress() uint64 { return g.Instructions }

// clone returns an independent deep copy of the generator at its
// current position: both copies produce the identical remaining op
// stream. A recording's readers continue past its end from one.
func (g *Generator) clone() *Generator {
	c := *g // history ring and samplers are values; the copy is deep
	rng := *g.rng
	c.rng = &rng
	return &c
}

// BatchSource is an optional Source extension: the producer fills a
// caller-provided buffer instead of handing out one op per interface
// call, amortizing dispatch overhead in the simulator's hot loop. The
// op sequence and the Progress accounting are identical to repeated
// Next calls; Fill simply stops early at the instruction limit so a
// consumer bounded by limit sees exactly the ops it would have pulled
// one at a time.
type BatchSource interface {
	Source
	// Fill writes ops into buf while Progress() < limit, returning how
	// many were produced (0 when the limit has been reached).
	Fill(buf []Op, limit uint64) int
}

// within returns how many of ops a reader at instrs instructions reads
// under Fill's stopping rule (an op is read while the count is below
// limit), and its count after them.
func within(ops []Op, instrs, limit uint64) (int, uint64) {
	k := 0
	for ; k < len(ops) && instrs < limit; k++ {
		instrs += uint64(ops[k].Gap) + 1
	}
	return k, instrs
}

// Fill produces the next batch of operations into buf, stopping when
// the generator's instruction count reaches limit, and returns the
// number of ops written. The resulting stream is bit-identical to
// calling Next the same number of times.
func (g *Generator) Fill(buf []Op, limit uint64) int {
	n := 0
	for n < len(buf) && g.Instructions < limit {
		buf[n] = g.Next()
		n++
	}
	return n
}
