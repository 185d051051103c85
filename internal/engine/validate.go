package engine

import (
	"fmt"
	"math"

	"plp/internal/addr"
	"plp/internal/bmt"
	"plp/internal/cache"
)

// Validate reports why cfg cannot run, as an error, instead of letting
// Run panic deep inside a constructor. It applies the same defaults
// fill does, so a zero Config validates clean; callers that accept
// configs from the outside (the plp facade's Session, the job
// service's submit path) check here before handing the config to Run.
func (c Config) Validate() error {
	c.fill()
	spec := specOf(c.Scheme)
	if spec == nil {
		return fmt.Errorf("engine: unknown scheme %q (known: %v)", c.Scheme, Schemes())
	}
	if err := bmt.CheckShape(c.BMTLevels, 8); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.WPQEntries < 1 {
		return fmt.Errorf("engine: WPQEntries must be >= 1, got %d", c.WPQEntries)
	}
	if c.PTTEntries < 1 {
		return fmt.Errorf("engine: PTTEntries must be >= 1, got %d", c.PTTEntries)
	}
	if c.ETTSlots < 1 {
		return fmt.Errorf("engine: ETTSlots must be >= 1, got %d", c.ETTSlots)
	}
	if c.EpochSize < 1 {
		return fmt.Errorf("engine: EpochSize must be >= 1, got %d", c.EpochSize)
	}
	if spec.validate != nil {
		if err := spec.validate(c); err != nil {
			return err
		}
	}
	if c.FlushCyclesPerLine < 0 {
		return fmt.Errorf("engine: FlushCyclesPerLine must be >= 0, got %d", c.FlushCyclesPerLine)
	}
	if c.MDCWays < 1 {
		return fmt.Errorf("engine: MDCWays must be >= 1, got %d", c.MDCWays)
	}
	// The cache geometries must be constructible (size a multiple of
	// line*ways, power-of-two set count, at most cache.MaxLines lines);
	// the cache package's own check applies New's rules without
	// building the caches, so the rules cannot drift and validating
	// allocates nothing.
	for _, g := range []cache.Config{
		{Name: "ctr", SizeBytes: c.CtrCacheKB * kb, Ways: c.MDCWays},
		{Name: "mac", SizeBytes: c.MACCacheKB * kb, Ways: c.MDCWays},
		{Name: "bmt", SizeBytes: c.BMTCacheKB * kb, Ways: c.MDCWays},
		{Name: "llc", SizeBytes: c.LLCKB * kb, Ways: c.LLCWays},
	} {
		g.LineBytes = addr.BlockBytes
		if err := g.Validate(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	// Zero NVM fields take nvm.DefaultConfig's values; anything else
	// must be a usable count or duration.
	n := c.NVM
	if n.Banks < 0 || n.WriteQueue < 0 {
		return fmt.Errorf("engine: NVM Banks and WriteQueue must be >= 0, got %d and %d", n.Banks, n.WriteQueue)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"CyclesPerNS", n.CyclesPerNS}, {"ReadNS", n.ReadNS}, {"WriteNS", n.WriteNS}, {"WriteBusNS", n.WriteBusNS}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("engine: NVM %s must be finite and >= 0, got %v", f.name, f.v)
		}
	}
	return nil
}
