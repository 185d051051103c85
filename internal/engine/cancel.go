package engine

// Canceler is the cooperative stop hook of Config.Cancel: a run polls
// Err and stops once it returns non-nil. context.Context satisfies it,
// so a caller hands its context to the run as is.
type Canceler interface{ Err() error }

// cancelPollOps is the operation interval between Config.Cancel polls:
// frequent enough that a cancellation lands within microseconds of
// wall-clock (a few thousand ops simulate in well under a millisecond),
// rare enough that the poll never shows up in a profile.
const cancelPollOps = 4096

// cancelled polls Config.Cancel, latching cancelStop once it has
// fired. It costs a nil check when no hook is installed, and it never
// touches timing state, so a hook that never fires leaves the run
// bit-identical to one without (pinned by the equivalence tests).
func (m *machine) cancelled() bool {
	if m.cfg.Cancel == nil || m.cfg.Cancel.Err() == nil {
		return false
	}
	m.cancelStop = true
	return true
}
