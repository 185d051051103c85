package engine

import (
	"fmt"

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
	if _, err := bmt.NewTopology(c.BMTLevels, 8); err != nil {
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
	// line*ways, power-of-two set count); reuse the cache package's own
	// constructor checks so the rules cannot drift.
	mdc := func(name string, kbs int) error {
		_, err := cache.New(cache.Config{
			Name: name, SizeBytes: kbs * kb, LineBytes: addr.BlockBytes,
			Ways: c.MDCWays, Policy: cache.WriteBack,
		})
		return err
	}
	if err := mdc("ctr", c.CtrCacheKB); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := mdc("mac", c.MACCacheKB); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := mdc("bmt", c.BMTCacheKB); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if _, err := cache.New(cache.Config{
		Name: "llc", SizeBytes: c.LLCKB * kb, LineBytes: addr.BlockBytes,
		Ways: c.LLCWays, Policy: cache.WriteBack,
	}); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
