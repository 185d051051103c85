package crash

import (
	"context"
	"fmt"
	"sort"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/recovery"
	"plp/internal/registry"
	"plp/internal/sim"
	"plp/internal/xrand"
)

// AllSchemes lists every scheme the campaign can target — everything
// in the engine's scheme registry.
func AllSchemes() []engine.Scheme {
	return engine.AllSchemes()
}

// CampaignConfig bounds one campaign.
type CampaignConfig struct {
	// Schemes to sweep; nil selects AllSchemes.
	Schemes []engine.Scheme `json:"schemes,omitempty"`
	// Bench is the benchmark profile driving the traces (default gcc,
	// whose high persist rate and LLC thrash exercise every scheme —
	// including secure_WB's eviction stream).
	Bench string `json:"bench"`
	// TraceSeed overrides the profile's trace seed (0 = default).
	TraceSeed uint64 `json:"traceSeed,omitempty"`
	// Instructions is the timed window per scheme (default 60_000).
	Instructions uint64 `json:"instructions"`
	// Systematic caps the persist-completion boundary points: every
	// recorded completion d contributes crash points d and d-1, then
	// an even-stride subsample enforces the cap (default 448).
	Systematic int `json:"systematic"`
	// Random adds seeded-random crash points in [1, horizon]
	// (default 64).
	Random int `json:"random"`
	// Seed seeds the random crash points (default 1).
	Seed uint64 `json:"seed"`
	// Levels is the functional memory's BMT depth for materialization
	// (default DefaultLevels).
	Levels int `json:"levels"`
	// Parallel bounds the verification worker pool (0 = NumCPU).
	Parallel int `json:"-"`
	// FaultEarlyRootAck forwards the engine fault hook to every case:
	// a campaign against it must report Invariant 2 violations.
	FaultEarlyRootAck bool `json:"faultEarlyRootAck,omitempty"`
}

func (c *CampaignConfig) fill() {
	if len(c.Schemes) == 0 {
		c.Schemes = AllSchemes()
	}
	if c.Bench == "" {
		c.Bench = "gcc"
	}
	if c.Instructions == 0 {
		c.Instructions = 60_000
	}
	if c.Systematic == 0 {
		c.Systematic = 448
	}
	if c.Random == 0 {
		c.Random = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Levels == 0 {
		c.Levels = DefaultLevels
	}
}

// SchemeReport aggregates one scheme's sweep.
type SchemeReport struct {
	Scheme    engine.Scheme `json:"scheme"`
	Guarantee Guarantee     `json:"guarantee"`
	// Points is the number of distinct crash cycles verified; Persists
	// the tuple persists the timed window recorded; Horizon the
	// window's final cycle.
	Points   int       `json:"points"`
	Persists int       `json:"persists"`
	Horizon  sim.Cycle `json:"horizon"`
	// MaxInFlight is the largest number of persists simultaneously
	// holding WPQ entries anywhere in the recorded window — the
	// worst-case in-flight metadata set a crash could strand, and the
	// shadow-replay recovery work list.
	MaxInFlight int `json:"maxInFlight"`
	// Recovery is the scheme's recovery-time estimate for this
	// window's geometry and worst-case in-flight set (see
	// internal/recovery.Estimate).
	Recovery recovery.Estimate `json:"recovery"`
	// Failures holds the failing verdicts (empty for a clean sweep).
	Failures []Verdict `json:"failures,omitempty"`
}

// Violations totals the violation strings across failing points.
func (s SchemeReport) Violations() int {
	n := 0
	for _, v := range s.Failures {
		n += len(v.Violations)
	}
	return n
}

// Report is one campaign's outcome.
type Report struct {
	CampaignConfig
	SchemeReports []SchemeReport `json:"schemeReports"`
}

// Clean reports whether every crash point of every scheme verified.
func (r Report) Clean() bool {
	for _, s := range r.SchemeReports {
		if len(s.Failures) > 0 {
			return false
		}
	}
	return true
}

// RunCampaign sweeps crash points over every configured scheme: one
// timed run per scheme records the full persist log, crash points are
// derived from it (systematic completion boundaries plus seeded-random
// cycles), and each point's snapshot is extracted, materialized, and
// verified in parallel through the harness worker pool. Deterministic:
// the same config yields the same report. Cancelling ctx stops the
// window runs and the point checks, and the campaign returns
// ctx.Err().
func RunCampaign(ctx context.Context, cfg CampaignConfig) (Report, error) {
	cfg.fill()
	rep := Report{CampaignConfig: cfg}
	for _, s := range cfg.Schemes {
		sr, err := runScheme(ctx, cfg, s)
		if err != nil {
			return rep, err
		}
		rep.SchemeReports = append(rep.SchemeReports, sr)
	}
	return rep, nil
}

// runScheme sweeps one scheme's crash points off a shared full-window
// log.
func runScheme(ctx context.Context, cfg CampaignConfig, scheme engine.Scheme) (SchemeReport, error) {
	base := Case{
		Scheme:            scheme,
		Bench:             cfg.Bench,
		TraceSeed:         cfg.TraceSeed,
		Instructions:      cfg.Instructions,
		FaultEarlyRootAck: cfg.FaultEarlyRootAck,
	}
	log, horizon, err := runLog(ctx, base)
	if err != nil {
		return SchemeReport{}, err
	}
	points := crashPoints(log, horizon, cfg)
	verdicts := make([]Verdict, len(points))
	err = harness.FanCtx(ctx, len(points), cfg.Parallel, func(i int) {
		c := base
		c.CrashAt = points[i]
		verdicts[i] = Check(snapshotFromLog(c, log, horizon), cfg.Levels)
	})
	if err != nil {
		return SchemeReport{}, err
	}
	sr := SchemeReport{
		Scheme:      scheme,
		Guarantee:   GuaranteeOf(scheme),
		Points:      len(points),
		Persists:    len(log.Records),
		Horizon:     horizon,
		MaxInFlight: maxInFlight(log),
	}
	sr.Recovery, _ = engine.RecoveryEstimate(base.config(), sr.MaxInFlight)
	for _, v := range verdicts {
		if !v.OK() {
			sr.Failures = append(sr.Failures, v)
		}
	}
	return sr, nil
}

// maxInFlight computes the log's peak persist concurrency: the
// largest number of persists that simultaneously held WPQ entries
// (admitted but not yet done). A completion and an admission at the
// same cycle count the completion first — the WPQ entry frees at
// completion.
func maxInFlight(log *Log) int {
	type event struct {
		at    sim.Cycle
		admit bool
	}
	events := make([]event, 0, 2*len(log.Records))
	for _, r := range log.Records {
		events = append(events, event{r.Admit, true}, event{r.Done, false})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].admit && events[j].admit
	})
	cur, peak := 0, 0
	for _, e := range events {
		if e.admit {
			cur++
			if cur > peak {
				peak = cur
			}
		} else {
			cur--
		}
	}
	return peak
}

// crashPoints derives the sweep's crash cycles: every recorded
// persist-completion boundary (both the first cycle that includes the
// persist and the last that excludes it), evenly subsampled down to
// cfg.Systematic, plus cfg.Random seeded-random cycles across the
// window. Sorted and deduplicated.
func crashPoints(log *Log, horizon sim.Cycle, cfg CampaignConfig) []sim.Cycle {
	seen := map[sim.Cycle]bool{}
	var sys []sim.Cycle
	add := func(c sim.Cycle, into *[]sim.Cycle) {
		if c >= 1 && !seen[c] {
			seen[c] = true
			*into = append(*into, c)
		}
	}
	for _, r := range log.Records {
		add(r.Done, &sys)
		if r.Done > 1 {
			add(r.Done-1, &sys)
		}
	}
	sort.Slice(sys, func(i, j int) bool { return sys[i] < sys[j] })
	pts := sys
	if cfg.Systematic > 0 && len(sys) > cfg.Systematic {
		pts = make([]sim.Cycle, 0, cfg.Systematic)
		for i := 0; i < cfg.Systematic; i++ {
			pts = append(pts, sys[i*len(sys)/cfg.Systematic])
		}
	}
	if horizon >= 1 {
		rng := xrand.New(cfg.Seed)
		for i := 0; i < cfg.Random; i++ {
			add(1+sim.Cycle(rng.Uint64n(uint64(horizon))), &pts)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// Shrink reduces a failing case to a minimal counterexample: first the
// shortest store prefix (instruction window) that still fails at the
// same crash cycle — sound because traces are prefix-stable, so a
// violation visible in a window stays visible in every longer one —
// then the earliest persist-completion boundary within that window
// that still fails, filtered out of that window's one persist log. The
// returned case fails with the returned verdict; an error is returned
// when the input case does not fail at all.
func Shrink(c Case, levels int) (Case, Verdict, error) {
	v, err := Verify(c, levels)
	if err != nil {
		return c, v, err
	}
	if v.OK() {
		return c, v, fmt.Errorf("crash: case %v verifies cleanly; nothing to shrink", c)
	}
	fails := func(cc Case) bool {
		vv, err := Verify(cc, levels)
		return err == nil && !vv.OK()
	}
	// Minimal instruction window (binary search on the monotone
	// predicate "the window's prefix already exhibits the violation").
	lo, hi := uint64(1), c.Instructions
	for lo < hi {
		mid := lo + (hi-lo)/2
		probe := c
		probe.Instructions = mid
		if fails(probe) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.Instructions = hi
	// Earliest failing completion boundary. The minimal window holds
	// few persists, so a linear scan is cheap and makes no
	// monotonicity assumption about crash cycles.
	log, horizon, err := runLog(context.TODO(), c)
	if err != nil {
		return c, v, err
	}
	var boundaries []sim.Cycle
	for _, r := range log.Records {
		if r.Done > 1 && r.Done-1 <= c.CrashAt {
			boundaries = append(boundaries, r.Done-1)
		}
		if r.Done <= c.CrashAt {
			boundaries = append(boundaries, r.Done)
		}
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })
	for _, b := range boundaries {
		probe := c
		probe.CrashAt = b
		if pv := Check(snapshotFromLog(probe, log, horizon), levels); !pv.OK() {
			return probe, pv, nil
		}
	}
	v = Check(snapshotFromLog(c, log, horizon), levels)
	if v.OK() {
		return c, v, fmt.Errorf("crash: shrunk case %v no longer fails (shrinker bug)", c)
	}
	return c, v, nil
}

// RegistryFile converts the report to its registry (JSON artifact)
// form.
func (r Report) RegistryFile(tag string) *registry.CrashFile {
	f := registry.NewCrashFile(tag)
	f.Bench = r.Bench
	f.TraceSeed = r.TraceSeed
	f.Instructions = r.Instructions
	f.Systematic = r.Systematic
	f.Random = r.Random
	f.Seed = r.Seed
	f.Levels = r.Levels
	f.FaultEarlyRootAck = r.FaultEarlyRootAck
	f.Clean = r.Clean()
	for _, s := range r.SchemeReports {
		cs := registry.CrashScheme{
			Scheme:         string(s.Scheme),
			Guarantee:      string(s.Guarantee),
			Points:         s.Points,
			Persists:       s.Persists,
			Horizon:        uint64(s.Horizon),
			Violations:     s.Violations(),
			MaxInFlight:    s.MaxInFlight,
			RecoveryKind:   string(s.Recovery.Kind),
			RecoveryNodes:  s.Recovery.Nodes,
			RecoveryReads:  s.Recovery.Reads,
			RecoveryCycles: uint64(s.Recovery.Cycles),
		}
		for _, v := range s.Failures {
			cs.Failures = append(cs.Failures, registry.CrashCase{
				Scheme:       string(v.Case.Scheme),
				Bench:        v.Case.Bench,
				TraceSeed:    v.Case.Seed(),
				Instructions: v.Case.Instructions,
				CrashAt:      uint64(v.Case.CrashAt),
				Fault:        v.Case.FaultEarlyRootAck,
				Guarantee:    string(v.Guarantee),
				Persisted:    v.Persisted,
				InFlight:     v.InFlight,
				Violations:   v.Violations,
			})
		}
		f.Schemes = append(f.Schemes, cs)
	}
	return f
}
