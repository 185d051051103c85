// Package telemetry is the windowed time-series layer of the
// observability stack: a cycle-interval sampler that turns the
// engine's end-of-run aggregates into per-window dynamics — WPQ
// occupancy filling under bursty persists, PTT/ETT pressure, NVM
// write traffic over time, and the evolving stall-cause mix. The
// paper's §V/§VII arguments are arguments about these dynamics (a
// scheme saturating its tracking structures mid-run is precisely what
// separates sp from pipeline from o3); the sampler makes them
// directly observable instead of inferred from totals.
//
// The sampler holds a bounded ring of fixed-width windows over
// simulated cycles. It is an engine.Observer: attached as a run's
// Config.Observer it turns every sample point (after each persist or
// epoch flush) and the run's end into a cumulative Probe, and
// attributes the deltas since the previous probe to the window
// containing the probe cycle. When a run outlives the ring, adjacent windows merge and the
// window width doubles, so the series always covers the whole run in
// at most MaxWindows entries with bounded memory — long runs lose
// resolution, never coverage.
//
// No sampler is the off switch: a run without an observer pays one
// pointer check per persist and allocates nothing for telemetry. A
// sampler is safe for one producing run plus any number of concurrent
// Snapshot readers (a job's live status reads while the engine
// writes).
package telemetry

import (
	"sync"

	"plp/internal/engine"
	"plp/internal/sim"
)

// DefaultInterval is the window width when the caller passes 0: 2^16
// cycles resolves a multi-million-cycle run into tens to hundreds of
// windows before any merging.
const DefaultInterval sim.Cycle = 1 << 16

// DefaultMaxWindows bounds the ring when the caller passes 0.
const DefaultMaxWindows = 512

// Window aggregates one fixed-width cycle interval. Counter fields
// are deltas within the window; occupancy fields summarize the probes
// that landed in it (min/mean/max for the WPQ, sum/max for the
// tracking tables). A window with Samples == 0 saw no probes: the run
// was between persist boundaries for its whole span.
type Window struct {
	Start   sim.Cycle `json:"start"`
	Samples uint64    `json:"samples"`

	Persists  uint64 `json:"persists"`
	Epochs    uint64 `json:"epochs"`
	NVMReads  uint64 `json:"nvmReads"`
	NVMWrites uint64 `json:"nvmWrites"`

	WPQMin int    `json:"wpqMin"`
	WPQMax int    `json:"wpqMax"`
	WPQSum uint64 `json:"wpqSum"`
	PTTMax int    `json:"pttMax"`
	PTTSum uint64 `json:"pttSum"`
	ETTMax int    `json:"ettMax"`
	ETTSum uint64 `json:"ettSum"`

	// Stalls holds the per-cause core cycles spent in this window,
	// indexed like Series.StallLabels.
	Stalls []float64 `json:"stalls,omitempty"`
}

// WPQMean returns the mean sampled WPQ occupancy (0 when unsampled).
func (w Window) WPQMean() float64 {
	if w.Samples == 0 {
		return 0
	}
	return float64(w.WPQSum) / float64(w.Samples)
}

// PTTMean returns the mean sampled PTT occupancy.
func (w Window) PTTMean() float64 {
	if w.Samples == 0 {
		return 0
	}
	return float64(w.PTTSum) / float64(w.Samples)
}

// ETTMean returns the mean sampled ETT occupancy.
func (w Window) ETTMean() float64 {
	if w.Samples == 0 {
		return 0
	}
	return float64(w.ETTSum) / float64(w.Samples)
}

// merge folds other (the later window) into w.
func (w *Window) merge(other Window) {
	if other.Samples > 0 {
		if w.Samples == 0 {
			w.WPQMin = other.WPQMin
		} else if other.WPQMin < w.WPQMin {
			w.WPQMin = other.WPQMin
		}
		if other.WPQMax > w.WPQMax {
			w.WPQMax = other.WPQMax
		}
		if other.PTTMax > w.PTTMax {
			w.PTTMax = other.PTTMax
		}
		if other.ETTMax > w.ETTMax {
			w.ETTMax = other.ETTMax
		}
	}
	w.Samples += other.Samples
	w.Persists += other.Persists
	w.Epochs += other.Epochs
	w.NVMReads += other.NVMReads
	w.NVMWrites += other.NVMWrites
	w.WPQSum += other.WPQSum
	w.PTTSum += other.PTTSum
	w.ETTSum += other.ETTSum
	for i := range w.Stalls {
		if i < len(other.Stalls) {
			w.Stalls[i] += other.Stalls[i]
		}
	}
}

// Series is the finished (or snapshotted) time series of one run.
// Window counter fields sum exactly to the run's totals — the same
// conservation invariant the cycle attribution keeps for Cycles.
type Series struct {
	// Interval is the final window width in cycles (>= the configured
	// interval when merging occurred).
	Interval    sim.Cycle `json:"interval"`
	StallLabels []string  `json:"stallLabels,omitempty"`
	Windows     []Window  `json:"windows"`
}

// Total sums field f over all windows.
func (s *Series) Total(f func(Window) uint64) uint64 {
	var t uint64
	for _, w := range s.Windows {
		t += f(w)
	}
	return t
}

// Probe is one cumulative observation at a persist/epoch/stall
// boundary. Counter fields are running totals since the start of the
// run; occupancy fields are instantaneous at At. Stalls is borrowed:
// the sampler copies it before returning, so producers may reuse the
// backing array across probes.
type Probe struct {
	At sim.Cycle

	WPQOccupancy int
	PTTOccupancy int
	ETTOccupancy int

	Persists  uint64
	Epochs    uint64
	NVMReads  uint64
	NVMWrites uint64

	Stalls []float64
}

// Sampler accumulates probes into the window ring. One producer may
// Record concurrently with any number of Snapshot readers.
type Sampler struct {
	mu         sync.Mutex
	width      sim.Cycle
	maxWindows int
	labels     []string
	windows    []Window

	lastAt sim.Cycle
	last   Probe // cumulative counters of the previous probe
	prevSt []float64
}

// NewSampler creates a sampler with the given window width (0 =
// DefaultInterval), ring capacity (0 = DefaultMaxWindows), and
// stall-cause labels (may be nil to skip the stall mix).
func NewSampler(interval sim.Cycle, maxWindows int, stallLabels []string) *Sampler {
	if interval == 0 {
		interval = DefaultInterval
	}
	if maxWindows <= 0 {
		maxWindows = DefaultMaxWindows
	}
	if maxWindows < 2 {
		maxWindows = 2 // merging needs room to halve into
	}
	s := &Sampler{width: interval, maxWindows: maxWindows}
	if len(stallLabels) > 0 {
		s.labels = append([]string(nil), stallLabels...)
		s.prevSt = make([]float64, len(stallLabels))
	}
	return s
}

// Interval returns the configured (initial) window width.
func (s *Sampler) Interval() sim.Cycle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.width
}

// Record attributes the counter deltas since the previous probe to
// the window containing p.At, and folds p's occupancy sample into it.
// Probe times are clamped monotonic: a probe whose At precedes the
// previous one lands in the previous probe's window (persist
// completion times can finish out of order relative to the core
// clock; the core clock the engine samples at is nondecreasing, so in
// practice this is a no-op guard).
func (s *Sampler) Record(p Probe) { s.record(&p) }

func (s *Sampler) record(p *Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.At < s.lastAt {
		p.At = s.lastAt
	}
	idx := int(p.At / s.width)
	for idx >= s.maxWindows {
		s.fold()
		idx = int(p.At / s.width)
	}
	for len(s.windows) <= idx {
		w := Window{Start: sim.Cycle(len(s.windows)) * s.width}
		if len(s.labels) > 0 {
			w.Stalls = make([]float64, len(s.labels))
		}
		s.windows = append(s.windows, w)
	}
	w := &s.windows[idx]
	if w.Samples == 0 || p.WPQOccupancy < w.WPQMin {
		w.WPQMin = p.WPQOccupancy
	}
	if p.WPQOccupancy > w.WPQMax {
		w.WPQMax = p.WPQOccupancy
	}
	if p.PTTOccupancy > w.PTTMax {
		w.PTTMax = p.PTTOccupancy
	}
	if p.ETTOccupancy > w.ETTMax {
		w.ETTMax = p.ETTOccupancy
	}
	w.Samples++
	w.WPQSum += uint64(p.WPQOccupancy)
	w.PTTSum += uint64(p.PTTOccupancy)
	w.ETTSum += uint64(p.ETTOccupancy)

	w.Persists += p.Persists - s.last.Persists
	w.Epochs += p.Epochs - s.last.Epochs
	w.NVMReads += p.NVMReads - s.last.NVMReads
	w.NVMWrites += p.NVMWrites - s.last.NVMWrites
	for i := range w.Stalls {
		if i < len(p.Stalls) {
			d := p.Stalls[i] - s.prevSt[i]
			if d > 0 {
				w.Stalls[i] += d
			}
			s.prevSt[i] = p.Stalls[i]
		}
	}

	s.lastAt = p.At
	s.last.Persists, s.last.Epochs = p.Persists, p.Epochs
	s.last.NVMReads, s.last.NVMWrites = p.NVMReads, p.NVMWrites
}

// Persist is a no-op: the probe's counters carry what the series needs.
func (s *Sampler) Persist(engine.PersistRecord) {}

// Epoch is a no-op, like Persist.
func (s *Sampler) Epoch(engine.EpochRecord) {}

// Sample records the engine's sample point as one cumulative probe,
// with the WPQ/PTT/ETT occupancy read at the probe's cycle.
func (s *Sampler) Sample(p engine.Probe) {
	at := p.At()
	c := Probe{
		At:           at,
		WPQOccupancy: p.WPQ().InFlightAt(at),
		Persists:     p.Persists(),
		Epochs:       p.Epochs(),
		NVMReads:     p.NVMReads(),
		NVMWrites:    p.NVMWrites(),
		Stalls:       p.Stalls(),
	}
	if t := p.PTT(); t != nil {
		c.PTTOccupancy = t.InFlightAt(at)
	}
	if e := p.ETT(); e != nil {
		c.ETTOccupancy = e.InFlightAt(at)
	}
	s.record(&c)
}

// End records the run's final probe. It carries the run totals, so the
// window deltas sum exactly to the engine's Result counters.
func (s *Sampler) End(p engine.Probe) { s.Sample(p) }

// fold halves the ring: adjacent windows merge pairwise and the
// window width doubles. Called with s.mu held.
func (s *Sampler) fold() {
	half := (len(s.windows) + 1) / 2
	for i := 0; i < half; i++ {
		w := s.windows[2*i]
		if 2*i+1 < len(s.windows) {
			w.merge(s.windows[2*i+1])
		}
		w.Start = sim.Cycle(i) * s.width * 2
		s.windows[i] = w
	}
	s.windows = s.windows[:half]
	s.width *= 2
}

// Snapshot returns a deep copy of the series so far. Safe to call
// while the producer is still recording (the live endpoint does).
func (s *Sampler) Snapshot() Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Series{Interval: s.width}
	if len(s.labels) > 0 {
		out.StallLabels = append([]string(nil), s.labels...)
	}
	out.Windows = make([]Window, len(s.windows))
	for i, w := range s.windows {
		cw := w
		if len(w.Stalls) > 0 {
			cw.Stalls = append([]float64(nil), w.Stalls...)
		}
		out.Windows[i] = cw
	}
	return out
}
