package engine

import (
	"fmt"

	"plp/internal/trace"
)

// opBatch is the number of ops a stream fills at a time.
const opBatch = 1024

// opStream feeds the op loops (runOps and warmCaches) their operation
// stream a batch at a time through one view, cur: a loop walks the
// view in place, so a run pays one source call per batch instead of a
// call per op. A source that holds its ops in memory (a
// trace.ViewSource: the arena's recording, a store replay) hands out
// its own ops as the view, with no copy and no instruction count of
// its own; a taken prefix is passed back to it. Every other source
// (the generator, trace files, phased sources, wrappers) fills the
// stream's buffer, through its own Fill or, without one, through
// nextFill, one Next call per op; so does a view source past the ops
// it holds.
//
// Batching is invisible to the timing model: consumed counts the
// instructions of the ops handed out (each op spans Gap+1), and each
// loop stops at its own bound, so it consumes exactly the op sequence
// it would have pulled one call at a time.
type opStream struct {
	src     trace.Source
	view    trace.ViewSource  // src, when it hands out its ops in place
	fill    trace.BatchSource // src's own Fill, or nextFill over src
	buf     []trace.Op
	cur     []trace.Op // the current batch: src's ops in place, or buf filled
	pos     int        // ops of cur handed out
	inPlace bool       // cur is src's own: a take advances src
	limit   uint64     // total instructions the run will consume (incl. warmup)
	// consumed counts the instructions of the ops handed out.
	consumed uint64
}

func newOpStream(src trace.Source, limit uint64, buf []trace.Op) *opStream {
	fill, ok := src.(trace.BatchSource)
	if !ok {
		fill = nextFill{src}
	}
	view, _ := src.(trace.ViewSource)
	return &opStream{src: src, view: view, fill: fill, buf: buf, limit: limit, consumed: src.Progress()}
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
// one, else a fill of the buffer. It is empty only once the source is
// at the run's limit. A view may run past the limit; the loops stop at
// their bound.
func (s *opStream) ops() []trace.Op {
	if s.pos == len(s.cur) {
		s.pos, s.inPlace = 0, false
		if s.view != nil {
			s.cur = s.view.View(s.limit)
			s.inPlace = len(s.cur) > 0
		}
		if !s.inPlace {
			s.cur = s.buf[:s.fill.Fill(s.buf, s.limit)]
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

// checkpoint captures the stream's exact position for later resumption:
// a positioned clone of the source, the ops already filled into the
// buffer but not yet handed out, and the instructions consumed so far.
// A source read in place has advanced only past the ops taken, so its
// clone alone is the position and nothing is pending. The source must
// be cloneable; the stream itself remains usable.
func (s *opStream) checkpoint() (src trace.Source, pending []trace.Op, consumed uint64, err error) {
	c, ok := s.src.(trace.CloneableSource)
	if !ok {
		return nil, nil, 0, fmt.Errorf("engine: source %T is not checkpointable (no CloneSource)", s.src)
	}
	if !s.inPlace {
		// The source sits past the filled ops; keep them so the
		// resumed stream hands them out before refilling.
		pending = append([]trace.Op(nil), s.cur[s.pos:]...)
	}
	return c.CloneSource(), pending, s.consumed, nil
}

// resumeOpStream rebuilds a stream from a checkpoint() capture. The
// pending ops are installed ahead of the source, and consumed is
// restored explicitly — the cloned source's Progress already includes
// the pending ops, so deriving consumed from it (as newOpStream does)
// would double-count them.
func resumeOpStream(src trace.Source, limit uint64, buf []trace.Op, pending []trace.Op, consumed uint64) *opStream {
	s := newOpStream(src, limit, buf)
	if copy(s.buf, pending) < len(pending) {
		panic(fmt.Sprintf("engine: resume buffer holds %d ops, checkpoint carries %d", len(s.buf), len(pending)))
	}
	s.cur, s.consumed = s.buf[:len(pending)], consumed
	return s
}
