package engine

import (
	"fmt"

	"plp/internal/trace"
)

// opBatch is the number of ops a stream fills at a time.
const opBatch = 1024

// opStream feeds the op loops (runOps and warmCaches) their operation
// stream a batch at a time: a loop walks each filled batch in place, so
// a run pays one Fill call per batch instead of a call per op. A source
// without a Fill of its own (phased, recorded) is filled through
// nextFill, one Next call per op.
//
// Batching is invisible to the timing model: consumed counts the
// instructions of the ops handed out (each op spans Gap+1), so a loop
// bounded by it consumes exactly the op sequence it would have pulled
// one call at a time.
type opStream struct {
	src      trace.Source
	fill     trace.BatchSource // src's own Fill, or nextFill over src
	buf      []trace.Op
	pos, n   int
	limit    uint64 // total instructions the run will consume (incl. warmup)
	consumed uint64 // instructions represented by ops handed out
}

func newOpStream(src trace.Source, limit uint64, buf []trace.Op) *opStream {
	fill, ok := src.(trace.BatchSource)
	if !ok {
		fill = nextFill{src}
	}
	return &opStream{src: src, fill: fill, buf: buf, limit: limit, consumed: src.Progress()}
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

// ops returns the filled ops not yet handed out, filling the buffer
// first when it is drained. It is empty only once the source is at
// the run's limit.
func (s *opStream) ops() []trace.Op {
	if s.pos == s.n {
		s.pos, s.n = 0, s.fill.Fill(s.buf, s.limit)
	}
	return s.buf[s.pos:s.n]
}

// take hands out the first k ops of the last ops() slice, which bring
// the stream's instruction count to consumed.
func (s *opStream) take(k int, consumed uint64) {
	s.pos += k
	s.consumed = consumed
}

// checkpoint captures the stream's exact position for later resumption:
// a positioned clone of the source, the ops already filled into the
// batch buffer but not yet handed out, and the instructions consumed so
// far. The source must be cloneable; the stream itself remains usable.
func (s *opStream) checkpoint() (src trace.Source, pending []trace.Op, consumed uint64, err error) {
	c, ok := s.src.(trace.CloneableSource)
	if !ok {
		return nil, nil, 0, fmt.Errorf("engine: source %T is not checkpointable (no CloneSource)", s.src)
	}
	// The source sits past the filled ops; keep them so the resumed
	// stream hands them out before refilling.
	pending = append([]trace.Op(nil), s.buf[s.pos:s.n]...)
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
	s.n, s.consumed = len(pending), consumed
	return s
}
