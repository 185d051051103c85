package engine

import "testing"

// ObservationAllocs measures the allocations of the observation
// epilogues — a strict persist's retire, an epoch persist, an epoch
// flush — on a machine built from cfg.
func ObservationAllocs(cfg Config) float64 {
	cfg.fill()
	m := newMachine(cfg)
	var res Result
	return testing.AllocsPerRun(100, func() {
		m.coreTime = 400
		m.retire(&res, 7, 100, 340, 340)
		m.persisted(&res, 7, 100, 340)
		m.epochRetired(&res, 1, 100, 340)
	})
}
