package engine

import "plp/internal/sim"

// Component identifies one cause of core execution cycles. The
// attribution decomposes Result.Cycles — the cycles the *core*
// observes — by cause, so the components of a pipelined scheme show
// where its residual stalls come from (the paper's §VII argument),
// not the total occupancy of each hardware unit (which the existing
// occupancy counters report).
type Component int

// The attribution components, in reporting order.
const (
	// CompCompute is instruction execution at the workload's baseline
	// IPC (plus any sub-cycle quantization residue of the float core
	// clock).
	CompCompute Component = iota
	// CompFlush is the epoch-boundary sfence drain of dirty lines
	// through the on-chip hierarchy (epoch-persistency schemes).
	CompFlush
	// CompWPQ is time stalled waiting for a free write-pending-queue
	// entry (queue full).
	CompWPQ
	// CompMeta is counter/MAC metadata fetch time (NVM reads) on the
	// persist critical path.
	CompMeta
	// CompSched is PTT/ETT scheduling wait: root-update serialization
	// (sp), pipeline stage/entry waits (pipeline), and epoch slot
	// admission (o3/coalescing).
	CompSched
	// CompBMTFetch is BMT node fetch time (BMT-cache misses served
	// from NVM) on the core-visible critical path.
	CompBMTFetch
	// CompMAC is MAC computation time on the core-visible critical
	// path.
	CompMAC
	// CompNVMWrite is NVM write time on the core-visible critical path
	// (only the sgxtree extension persists tree nodes synchronously).
	CompNVMWrite

	// NumComponents is the number of attribution components.
	NumComponents
)

// String returns the component's short reporting name.
func (c Component) String() string {
	switch c {
	case CompCompute:
		return "compute"
	case CompFlush:
		return "flush"
	case CompWPQ:
		return "wpq"
	case CompMeta:
		return "meta"
	case CompSched:
		return "sched"
	case CompBMTFetch:
		return "bmtfetch"
	case CompMAC:
		return "mac"
	case CompNVMWrite:
		return "nvmwrite"
	}
	return "unknown"
}

// Components lists all attribution components in reporting order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// ComponentLabels returns the component names in reporting order —
// the stall-mix labels the telemetry sampler is configured with.
func ComponentLabels() []string {
	out := make([]string, NumComponents)
	for i := range out {
		out[i] = Component(i).String()
	}
	return out
}

// Attribution is a per-component decomposition of Result.Cycles. Its
// components always sum exactly to the result's cycle count (asserted
// in tests), which makes the attribution double as a consistency check
// on the timing model: any core-time advance the schemes fail to
// label shows up as drift (folded into CompCompute and reported via
// AttribDrift).
type Attribution [NumComponents]sim.Cycle

// Total returns the sum of all components (== Result.Cycles).
func (a Attribution) Total() sim.Cycle {
	var t sim.Cycle
	for _, v := range a {
		t += v
	}
	return t
}

// Share returns component c's fraction of the total (0 if empty).
func (a Attribution) Share(c Component) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(a[c]) / float64(t)
}

// attrib accumulates per-component core cycles in float64 (the core
// clock is a float) during a run and converts them to an exact integer
// decomposition at the end.
type attrib struct {
	comp [NumComponents]float64
}

func (a *attrib) add(c Component, cycles float64) {
	if cycles > 0 {
		a.comp[c] += cycles
	}
}

// finalize converts the float accumulators into an Attribution whose
// components sum exactly to total, using cumulative truncation so no
// cycles are created or lost by rounding. It returns the attribution
// and the float drift |sum(comp) - total| — near zero when every
// core-time advance was labelled.
func (a *attrib) finalize(total sim.Cycle) (Attribution, float64) {
	var out Attribution
	sumf := 0.0
	for _, v := range a.comp {
		sumf += v
	}
	drift := sumf - float64(total)
	if drift < 0 {
		drift = -drift
	}
	run := 0.0
	var used sim.Cycle
	for c := range a.comp {
		run += a.comp[c]
		v := sim.Cycle(run)
		if v > total {
			v = total
		}
		if v < used {
			v = used
		}
		out[c] = v - used
		used = v
	}
	// Any residue (float drift, sub-cycle truncation) is core time not
	// spent stalled on a labelled cause: fold it into compute.
	if used < total {
		out[CompCompute] += total - used
	}
	return out, drift
}

// segMark labels the core-visible critical path of one persist: the
// cycles from the previous mark (or the persist's origin) up to At
// were spent on Comp. Marks are recorded in increasing time order as
// the persist's tuple gathering and tree walk are scheduled.
type segMark struct {
	at   sim.Cycle
	comp Component
}

// beginPersist resets the segment recorder for a new persist whose
// critical path starts at the given origin (the core time at WPQ
// admission).
func (m *machine) beginPersist(origin sim.Cycle) {
	m.segs = m.segs[:0]
	m.segOrigin, m.segLast = origin, origin
}

// mark appends one critical-path segment label, unless it spans
// nothing: a mark at or before the latest one (or the origin) labels
// no cycles. chargeStall would skip it without adding to the
// attribution or moving its running bound, so dropping it leaves
// every float addition, and their order, as they were; the kept marks
// are strictly increasing.
func (m *machine) mark(c Component, at sim.Cycle) {
	if at <= m.segLast {
		return
	}
	m.segs = append(m.segs, segMark{at: at, comp: c})
	m.segLast = at
}

// chargeStall attributes the core-time advance from t (the core clock
// before the stall) to target (the scheme's wait point) across the
// recorded segment marks. Marks beyond target are clamped; an
// uncovered tail (a wait point no mark reached — should not happen)
// is charged to CompSched so the total still balances.
func (m *machine) chargeStall(t float64, target sim.Cycle) {
	tgt := float64(target)
	if tgt <= t {
		return
	}
	lo := float64(m.segOrigin)
	for _, s := range m.segs {
		hi := float64(s.at)
		if hi > tgt {
			hi = tgt
		}
		if hi > lo {
			from := lo
			if t > from {
				from = t
			}
			if hi > from {
				m.att.add(s.comp, hi-from)
			}
		}
		if float64(s.at) > lo {
			lo = float64(s.at)
		}
		if lo >= tgt {
			break
		}
	}
	if lo < tgt {
		from := lo
		if t > from {
			from = t
		}
		m.att.add(CompSched, tgt-from)
	}
}
