package engine

// NewTracer returns the Observer that streams every persist and epoch
// event of a run to sink, or nil — the free path — for a nil sink. A
// sink that wants fewer events filters on ev.Kind itself. Tracing is
// observational: simulated cycles are bit-identical with or without a
// tracer.
func NewTracer(sink func(TraceEvent)) Observer {
	if sink == nil {
		return nil
	}
	return tracer(sink)
}

// tracer turns the run's persist and epoch records into trace events.
type tracer func(TraceEvent)

func (t tracer) Persist(r PersistRecord) { t(r.event()) }
func (t tracer) Epoch(r EpochRecord)     { t(r.event()) }
func (t tracer) Sample(Probe)            {}
func (t tracer) End(Probe)               {}
