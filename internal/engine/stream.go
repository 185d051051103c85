package engine

import "plp/internal/trace"

// opBatch is the number of ops a stream fills at a time.
const opBatch = 1024

// opStream feeds the op loops (runOps and warmCaches) their operation
// stream a batch at a time through one view, cur: a loop walks the
// view in place, so a run pays one source call per batch instead of a
// call per op. A recording's reader (the arena's, or a checkpoint's
// clone of a built recording's) hands out its own ops as the view,
// with no copy and no instruction count of its own; a taken prefix is
// passed back to it. Every other source (the generator, trace files,
// phased sources, wrappers) fills the stream's buffer, through its own
// Fill or, without one, through nextFill, one Next call per op; so
// does a reader past the ops its recording holds.
//
// Batching is invisible to the timing model: consumed counts the
// instructions of the ops handed out (each op spans Gap+1), and each
// loop fills under its own bound and stops at it, so it consumes
// exactly the op sequence it would have pulled one call at a time.
// Because the warm-up fills under the warm-up's bound, a filled batch
// is spent exactly when warm-up ends, and the source's position alone
// is the stream's position at the warm-up boundary (what a Checkpoint
// keeps).
type opStream struct {
	view    *trace.RecordingReader // the source, when it is a recording's reader
	fill    trace.BatchSource      // the source's own Fill, or nextFill over it
	buf     []trace.Op
	cur     []trace.Op // the current batch: the source's ops in place, or buf filled
	pos     int        // ops of cur handed out
	inPlace bool       // cur is the source's own: a take advances it
	// consumed counts the instructions of the ops handed out.
	consumed uint64
}

func newOpStream(src trace.Source, buf []trace.Op) *opStream {
	fill, ok := src.(trace.BatchSource)
	if !ok {
		fill = nextFill{src}
	}
	view, _ := src.(*trace.RecordingReader)
	return &opStream{view: view, fill: fill, buf: buf, consumed: src.Progress()}
}

// nextFill fills a batch from a Source that has no Fill of its own,
// with the BatchSource stopping rule.
type nextFill struct{ trace.Source }

func (f nextFill) Fill(buf []trace.Op, limit uint64) int {
	n := 0
	for n < len(buf) && f.Progress() < limit {
		buf[n] = f.Next()
		n++
	}
	return n
}

// ops returns the batch's ops not yet handed out, taking the next
// batch first when it is drained: the source's own view when it has
// one, else a fill of the buffer under limit, the calling loop's
// bound. It is empty only once the source is at limit. A view may run
// past the limit; the loops stop at their bound.
func (s *opStream) ops(limit uint64) []trace.Op {
	if s.pos == len(s.cur) {
		s.pos, s.inPlace = 0, false
		if s.view != nil {
			s.cur = s.view.View(limit)
			s.inPlace = len(s.cur) > 0
		}
		if !s.inPlace {
			s.cur = s.buf[:s.fill.Fill(s.buf, limit)]
		}
	}
	return s.cur[s.pos:]
}

// take hands out the first k ops of the last ops() slice, which bring
// the stream's instruction count to consumed.
func (s *opStream) take(k int, consumed uint64) {
	s.pos += k
	s.consumed = consumed
	if s.inPlace {
		s.view.Take(k, consumed)
	}
}
