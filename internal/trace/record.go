package trace

// RecordingCap bounds a Recording at 1<<22 ops (64 MB). A reader that
// runs past it continues from a private clone of the recording's
// generator, so a recording's memory does not grow with the
// instruction count of the runs that read it.
const RecordingCap = 1 << 22

// recordChunk is how many ops record generates per Fill call.
const recordChunk = 1024

// record appends to ops what g produces while its instruction count is
// below limit, stopping once ops holds maxOps ops. It is the one capped
// materialization behind both Batch and Recording: the ops are exactly
// the ones g would hand a Fill-driven run, and g is left just past the
// last of them.
//
// ops fills its capacity before it grows, and then grows by doubling up
// to maxOps, so its capacity never exceeds maxOps unless it started
// above it.
func record(g *Generator, ops []Op, limit uint64, maxOps int) []Op {
	for len(ops) < maxOps && g.Instructions < limit {
		if len(ops) == cap(ops) {
			grown := make([]Op, len(ops), min(max(2*cap(ops), len(ops)+recordChunk), maxOps))
			copy(grown, ops)
			ops = grown
		}
		k := min(min(cap(ops), maxOps)-len(ops), recordChunk)
		ops = ops[:len(ops)+g.Fill(ops[len(ops):len(ops)+k], limit)]
	}
	return ops
}

// pageOps is the number of ops in a Recording's page (1 MB). A
// recording grows a page at a time, so growing never copies what is
// recorded or leaves garbage behind.
const pageOps = 1 << 16

// Recording holds a prefix of one profile's op stream in memory, with
// the generator positioned just past it. The prefix grows as readers
// read past its end, up to RecordingCap ops, so the first run over a
// profile generates the stream while it simulates and every later run
// replays it. Switching to another profile discards the prefix but
// keeps its pages.
//
// A Recording is not safe for concurrent use; the engine keeps one in
// each run arena. The zero value is ready to use.
type Recording struct {
	p     Profile
	gen   *Generator // nil until the first Reader
	pages [][]Op     // every page but the one being filled is full
	n     int        // ops recorded
}

// Holds reports whether the recording is of p's stream. Profiles are
// compared as whole values: two custom profiles that share a name and
// a seed but differ in a rate are different streams.
func (r *Recording) Holds(p Profile) bool { return r.gen != nil && r.p == p }

// Ops returns the number of ops recorded so far.
func (r *Recording) Ops() int { return r.n }

// Reader returns a Source over p's stream from its start. If the
// recording holds another profile's stream, that stream is dropped
// first; a reader of it must not be used again.
func (r *Recording) Reader(p Profile) *RecordingReader {
	if !r.Holds(p) {
		r.p, r.gen, r.n = p, NewGenerator(p), 0
		for i := range r.pages {
			r.pages[i] = r.pages[i][:0]
		}
	}
	return &RecordingReader{rec: r, gen: r.gen}
}

// extend records up to want more ops, while the generator's count is
// below limit and the recording below RecordingCap.
func (r *Recording) extend(want int, limit uint64) {
	if r.n == RecordingCap {
		return
	}
	i := r.n / pageOps
	if i == len(r.pages) {
		r.pages = append(r.pages, make([]Op, 0, pageOps))
	}
	page := r.pages[i]
	r.pages[i] = record(r.gen, page, limit, min(len(page)+want, pageOps))
	r.n += len(r.pages[i]) - len(page)
}

// RecordingReader streams a Recording. It implements Source and
// BatchSource with the generator's stopping rule, so a run reads
// exactly the ops a fresh Generator would hand it. It deliberately does
// not implement CloneableSource: the recording's pages are reused for
// the next profile, so nothing may pin a position inside them.
type RecordingReader struct {
	rec    *Recording
	gen    *Generator // the recording's generator when this reader was made
	pos    int
	instrs uint64
	tail   *Generator // private clone once the reader is past RecordingCap
}

// Next produces the next operation, satisfying Source.
func (r *RecordingReader) Next() Op {
	var op [1]Op
	r.Fill(op[:], ^uint64(0))
	return op[0]
}

// Progress returns the instructions represented so far.
func (r *RecordingReader) Progress() uint64 { return r.instrs }

// Fill writes ops into buf while Progress() < limit, satisfying
// BatchSource. At the end of the recording it records the ops it needs
// first; at the cap it reads on from its own clone of the generator.
func (r *RecordingReader) Fill(buf []Op, limit uint64) int {
	rec := r.rec
	if rec.gen != r.gen {
		panic("trace: RecordingReader used after its recording moved to another profile")
	}
	n := 0
	for r.tail == nil && n < len(buf) && r.instrs < limit {
		if r.pos == rec.n {
			// The reader is at the recording's end, so its progress is
			// the generator's: recording up to limit records exactly
			// the ops this fill still needs.
			rec.extend(len(buf)-n, limit)
			if r.pos == rec.n {
				r.tail = rec.gen.CloneSource().(*Generator)
				break
			}
		}
		// Count off the ops the limit admits, then copy them in one go.
		src := rec.pages[r.pos/pageOps][r.pos%pageOps:]
		src = src[:min(len(src), len(buf)-n)]
		k := 0
		for ; k < len(src) && r.instrs < limit; k++ {
			r.instrs += uint64(src[k].Gap) + 1
		}
		copy(buf[n:], src[:k])
		n += k
		r.pos += k
	}
	if r.tail != nil {
		// The clone started where the recording ends, so its count is
		// the reader's.
		n += r.tail.Fill(buf[n:], limit)
		r.instrs = r.tail.Instructions
	}
	return n
}
