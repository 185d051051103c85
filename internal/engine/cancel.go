package engine

// cancelPollOps is the operation interval between Config.Cancel polls:
// frequent enough that a cancellation lands within microseconds of
// wall-clock (a few thousand ops simulate in well under a millisecond),
// rare enough that the poll never shows up in a profile.
const cancelPollOps = 4096

// stopNow reports whether the run must halt at this operation: an
// injected power loss (Config.CrashAt) or a cooperative cancellation
// (Config.Cancel). The crash check is the hot path's single comparison,
// exactly as before; the cancel branch costs a nil check when no hook
// is installed and a countdown decrement when one is. Neither branch
// touches timing state, so a hook that never fires leaves the run
// bit-identical to one without (pinned by the equivalence tests).
func (m *machine) stopNow(coreTime float64) bool {
	if m.crashed(coreTime) {
		return true
	}
	if m.cfg.Cancel == nil {
		return false
	}
	m.cancelLeft--
	if m.cancelLeft > 0 {
		return false
	}
	m.cancelLeft = cancelPollOps
	if m.cfg.Cancel() {
		m.cancelStop = true
		return true
	}
	return false
}

// crashed reports whether the core clock has passed the injected crash
// cycle. Every persist completes no earlier than the core time at
// which it was admitted, so once the core passes CrashAt no future
// persist can complete by the crash instant: the run may stop early
// without changing the crash-time persisted state. With CrashAt unset
// this is a single comparison per loop iteration.
func (m *machine) crashed(coreTime float64) bool {
	return m.cfg.CrashAt != 0 && coreTime > float64(m.cfg.CrashAt)
}
