// Package ett models the epoch tracking table (§V-B, Fig. 7): the
// structure that enables persist-level parallelism under epoch
// persistency. Within an epoch, BMT updates proceed out of order
// (§IV-B1 proves common-ancestor updates commute); across epochs,
// updates are pipelined in epoch order — each BMT level is updated by
// persists of a single epoch at a time, which prevents cross-epoch
// write-after-write hazards and keeps root updates in epoch order
// (Invariant 2 at epoch granularity).
//
// The package also implements BMT update coalescing (§IV-B2, §V-C):
// paired coalescing, where each new persist pairs with the previous
// uncoalesced one, the leading persist stopping at the pair's least
// common ancestor (LCA) and delegating the remaining path to the
// trailing persist; and the chained (union) node count used to
// reproduce the paper's Fig. 5 example.
package ett

import (
	"plp/internal/bmt"
	"plp/internal/sim"
	"plp/internal/stats"
)

// LevelCost computes the completion time of one node update starting
// no earlier than start: the update by the epoch's persist-th persist
// (index into the ScheduleEpoch leaves) at the given 1-based tree
// level. The engine injects MAC-unit bandwidth and cache-miss
// penalties through it, resolving (persist, level) to a node label for
// BMT-cache lookups.
type LevelCost func(persist, level int, start sim.Cycle) (done sim.Cycle)

// Policy selects the coalescing strategy.
type Policy uint8

const (
	// PolicyNone performs every persist's full leaf-to-root walk (o3).
	PolicyNone Policy = iota
	// PolicyPaired is the paper's hardware policy (§V-C): each new
	// persist coalesces with the previous uncoalesced one at their LCA.
	PolicyPaired
	// PolicyChained is the idealized policy of the Fig. 5 example:
	// every distinct node of the epoch's update paths is updated once,
	// in dependency order. It is the iterative optimum the paper deems
	// "too costly for hardware implementation" — included here as an
	// ablation upper bound.
	PolicyChained
)

// Scheduler coordinates epoch-ordered, intra-epoch-OOO BMT updates.
type Scheduler struct {
	topo   *bmt.Topology
	slots  int
	policy Policy

	// levelGate[l-1]: completion time of the previous epoch's last
	// update at level l. The current epoch's updates at level l start
	// no earlier.
	levelGate []sim.Cycle

	// complete is a ring of the last `slots` epoch completion times:
	// epoch e may not begin until epoch e-slots completed.
	complete []sim.Cycle
	head     int

	// Reusable per-epoch scratch (the scheduler runs every EpochSize
	// stores; recycling these is what keeps the steady-state loop at
	// zero heap allocations per store).
	plans   []persistPlan
	pdone   []sim.Cycle
	newGate []sim.Cycle

	// Stats.
	Epochs        uint64
	Persists      uint64
	NodeUpdates   uint64 // node updates actually performed
	UpdatesNoCoal uint64 // node updates a non-coalescing scheme would do
	SlotStalls    sim.Cycle
	// EpochLatency distributes each epoch's latency from ready (dirty
	// lines drained into the WPQ) to its last root-update completion.
	EpochLatency stats.Histogram
}

// NewScheduler creates a scheduler over topo with the given number of
// concurrently tracked epochs (Table III: 2) and coalescing policy.
func NewScheduler(topo *bmt.Topology, slots int, policy Policy) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	return &Scheduler{
		topo:      topo,
		slots:     slots,
		policy:    policy,
		levelGate: make([]sim.Cycle, topo.Levels()),
		complete:  make([]sim.Cycle, slots),
		newGate:   make([]sim.Cycle, topo.Levels()),
	}
}

// CoalescingReduction returns the fraction of BMT node updates removed
// by coalescing so far (the paper reports 26.1% on average).
func (s *Scheduler) CoalescingReduction() float64 {
	if s.UpdatesNoCoal == 0 {
		return 0
	}
	return 1 - float64(s.NodeUpdates)/float64(s.UpdatesNoCoal)
}

// persistPlan is one persist's scheduled walk. Plans live in the
// scheduler's reusable scratch slice (values, not pointers), so an
// epoch's planning allocates nothing in steady state.
type persistPlan struct {
	leaf bmt.Label
	// stopLevel is the highest level (smallest number) this persist
	// updates itself; 1 means it walks to the root, k>1 means it stops
	// below the LCA and delegates.
	stopLevel int
	// waitFor, if >= 0, indexes the pair leader whose sub-LCA
	// completion the trailing persist's LCA update must wait for.
	waitFor int
	// lcaLevel is the level of the pair's LCA (only for trailing).
	lcaLevel int
	// doneBelow is the leader's completion of its truncated walk.
	doneBelow sim.Cycle
}

// scratch returns the reusable plan/done slices sized for n persists.
func (s *Scheduler) scratch(n int) ([]persistPlan, []sim.Cycle) {
	if cap(s.plans) < n {
		s.plans = make([]persistPlan, n)
		s.pdone = make([]sim.Cycle, n)
	}
	return s.plans[:n], s.pdone[:n]
}

// ScheduleEpoch schedules all persists of one epoch (their BMT leaf
// labels), ready at the given cycle, and returns the epoch's persist
// completion time. Leaves may repeat (multiple blocks of one page).
// Admitted is when the epoch obtained its ETT slot (>= ready when a
// previous epoch was still occupying it): the back-pressure point the
// core observes at the epoch boundary.
// PerPersist receives each persist's own completion time (the cycle
// its WPQ entry unlocks); for a coalesced pair the leader completes
// with its trailing partner (the pair's root update covers both).
// The returned slice aliases scheduler-owned scratch: it is valid
// until the next ScheduleEpoch call and must not be retained.
func (s *Scheduler) ScheduleEpoch(ready sim.Cycle, leaves []bmt.Label, cost LevelCost) (admitted, done sim.Cycle, perPersist []sim.Cycle) {
	s.Epochs++
	levels := s.topo.Levels()
	s.UpdatesNoCoal += uint64(len(leaves) * levels)

	// Epoch slot admission.
	start := ready
	if g := s.complete[s.head]; g > start {
		start = g
	}
	s.SlotStalls += start - ready

	if s.policy == PolicyChained {
		admitted, done, perPersist = s.scheduleChained(start, leaves, cost)
		s.EpochLatency.Add(uint64(done - ready))
		return admitted, done, perPersist
	}

	// Build plans, pairing for coalescing.
	plans, pdone := s.scratch(len(leaves))
	for i, leaf := range leaves {
		plans[i] = persistPlan{leaf: leaf, stopLevel: 1, waitFor: -1}
	}
	if s.policy == PolicyPaired {
		for i := 0; i+1 < len(plans); i += 2 {
			lcaLvl := s.topo.LeafLCALevel(plans[i].leaf, plans[i+1].leaf)
			plans[i].stopLevel = lcaLvl + 1 // leader stops below the LCA
			plans[i+1].waitFor = i
			plans[i+1].lcaLevel = lcaLvl
		}
	}

	// Walk the epoch level-major — the wave order the ETT hardware
	// actually advances in: all leaf updates, then all next-level
	// updates, and so on. Within the epoch, persists are independent
	// except for pair delegation; cross-epoch ordering comes from
	// levelGate. newGate accumulates this epoch's per-level frontier.
	newGate := s.newGate
	copy(newGate, s.levelGate)
	for pi := range plans {
		pdone[pi] = start
		s.Persists++
	}
	var epochDone sim.Cycle
	for lvl := levels; lvl >= 1; lvl-- {
		for pi := range plans {
			p := &plans[pi]
			if lvl < p.stopLevel {
				continue // delegated to the pair's trailing persist
			}
			st := pdone[pi]
			if g := s.levelGate[lvl-1]; g > st {
				st = g
			}
			if p.waitFor >= 0 && lvl == p.lcaLevel && plans[p.waitFor].doneBelow > st {
				st = plans[p.waitFor].doneBelow // wait for the leader at the LCA
			}
			pdone[pi] = cost(pi, lvl, st)
			s.NodeUpdates++
			if pdone[pi] > newGate[lvl-1] {
				newGate[lvl-1] = pdone[pi]
			}
			if lvl == p.stopLevel {
				p.doneBelow = pdone[pi]
			}
			if p.stopLevel == 1 && pdone[pi] > epochDone {
				epochDone = pdone[pi]
			}
		}
	}
	// A leading persist that delegated still needs its own entry
	// released only when the pair's root update completes; the trailing
	// persist's completion covers it, so epochDone already includes it.
	if epochDone < start {
		epochDone = start // empty epoch
	}
	// A delegating leader's entry unlocks when its pair's root update
	// completes.
	for pi := range plans {
		if plans[pi].stopLevel != 1 {
			pdone[pi] = pdone[pi+1]
		}
	}
	copy(s.levelGate, newGate)
	s.complete[s.head] = epochDone
	s.head = (s.head + 1) % s.slots
	s.EpochLatency.Add(uint64(epochDone - ready))
	return start, epochDone, pdone
}

// InFlightAt returns the number of ETT slots still occupied at the
// given cycle: scheduled epochs whose last root update completes
// beyond it. This is the telemetry sampler's occupancy probe.
func (s *Scheduler) InFlightAt(at sim.Cycle) int {
	n := 0
	for _, done := range s.complete {
		if done > at {
			n++
		}
	}
	return n
}

// UnionNodeCount returns the number of distinct BMT nodes on the
// update paths of the given leaves — the node-update count of ideal
// (chained) coalescing, where every shared suffix is updated once.
// This reproduces the paper's Fig. 5 example (12 → 7 updates).
func UnionNodeCount(topo *bmt.Topology, leaves []bmt.Label) int {
	seen := make(map[bmt.Label]bool)
	for _, leaf := range leaves {
		for _, n := range topo.UpdatePath(leaf) {
			seen[n] = true
		}
	}
	return len(seen)
}

// PairedNodeCount returns the node-update count under paired LCA
// coalescing: persists pair (1,2), (3,4), ...; each pair's leader
// stops below the LCA.
func PairedNodeCount(topo *bmt.Topology, leaves []bmt.Label) int {
	levels := topo.Levels()
	total := 0
	for i := 0; i < len(leaves); i += 2 {
		if i+1 >= len(leaves) {
			total += levels
			break
		}
		lcaLvl := topo.LeafLCALevel(leaves[i], leaves[i+1])
		total += (levels - lcaLvl) + levels
	}
	return total
}

// scheduleChained performs the idealized (union) coalescing walk:
// every distinct node of the epoch's update paths is updated exactly
// once, after all of its updated children — a dependency-ordered DAG
// schedule. The epoch's persists all complete with the root update.
// The caller (ScheduleEpoch) records EpochLatency against the
// pre-admission ready time, so it is not recorded here.
func (s *Scheduler) scheduleChained(start sim.Cycle, leaves []bmt.Label, cost LevelCost) (admitted, done sim.Cycle, perPersist []sim.Cycle) {
	levels := s.topo.Levels()
	// Collect the union of path nodes per level, in insertion order,
	// remembering a representative persist index for each node (so the
	// engine can resolve labels for cache lookups).
	rep := make(map[bmt.Label]int)
	perLevel := make([][]bmt.Label, levels+1) // index by 1-based level
	for pi, leaf := range leaves {
		for _, n := range s.topo.UpdatePath(leaf) {
			if _, ok := rep[n]; ok {
				continue
			}
			rep[n] = pi
			lvl := s.topo.Level(n)
			perLevel[lvl] = append(perLevel[lvl], n)
		}
	}

	newGate := make([]sim.Cycle, levels)
	copy(newGate, s.levelGate)
	nodeDone := make(map[bmt.Label]sim.Cycle, len(rep))
	var epochDone sim.Cycle
	for lvl := levels; lvl >= 1; lvl-- {
		for _, n := range perLevel[lvl] {
			st := start
			if lvl < levels {
				for i := 0; i < s.topo.Arity(); i++ {
					if d, ok := nodeDone[s.topo.Child(n, i)]; ok && d > st {
						st = d
					}
				}
			}
			if g := s.levelGate[lvl-1]; g > st {
				st = g
			}
			d := cost(rep[n], lvl, st)
			nodeDone[n] = d
			s.NodeUpdates++
			if d > newGate[lvl-1] {
				newGate[lvl-1] = d
			}
			if d > epochDone {
				epochDone = d
			}
		}
	}
	if epochDone < start {
		epochDone = start
	}
	s.Persists += uint64(len(leaves))
	copy(s.levelGate, newGate)
	s.complete[s.head] = epochDone
	s.head = (s.head + 1) % s.slots
	pdone := make([]sim.Cycle, len(leaves))
	for i := range pdone {
		pdone[i] = epochDone
	}
	return start, epochDone, pdone
}
