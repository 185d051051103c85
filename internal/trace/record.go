package trace

// RecordingCap bounds an arena's Recording at 1<<22 ops (64 MB). A
// reader that runs past it continues from a private clone of the
// recording's generator, so a recording's memory does not grow with
// the instruction count of the runs that read it.
const RecordingCap = 1 << 22

// recordChunk is how many ops a reader at an arena recording's end
// records before it reads on.
const recordChunk = 1024

// pageOps is the number of ops in a Recording's page (1 MB). An
// arena's recording grows a page at a time, so growing never copies
// what is recorded or leaves garbage behind.
const pageOps = 1 << 16

// Recording holds a prefix of one profile's op stream in memory, with
// the generator positioned just past it. There are two kinds.
//
// An arena's recording (the zero value) grows as readers read past its
// end, up to RecordingCap ops, so the first run over a profile
// generates the stream while it simulates and every later run replays
// it. Switching to another profile discards the prefix but keeps its
// pages. It is not safe for concurrent use; the engine keeps one in
// each run arena.
//
// A built recording (Store.Get's) is recorded whole when it is made and
// never changes after: it is never extended, reset or moved to another
// profile. Any number of readers on any goroutines may share it, and
// its readers may be cloned. A reader past its end continues from a
// clone of its tail generator.
type Recording struct {
	p     Profile
	gen   *Generator // nil until the first Reader
	pages [][]Op     // pageOps ops to a page, up to the last op recorded
	n     int        // ops recorded
	built bool
}

// build records p's stream while the generator's count is below
// instructions, holding at most maxOps ops. Its last page is cut to
// the ops it holds, so the recording takes no more memory than they
// do.
func build(p Profile, instructions uint64, maxOps int) *Recording {
	r := &Recording{p: p, gen: NewGenerator(p), built: true}
	for r.n < maxOps && r.gen.Instructions < instructions {
		page := make([]Op, min(pageOps, maxOps-r.n))
		if n := r.gen.Fill(page, instructions); n < len(page) {
			page = append(make([]Op, 0, n), page[:n]...)
		}
		r.pages = append(r.pages, page)
		r.n += len(page)
	}
	return r
}

// Holds reports whether the recording is of p's stream. Profiles are
// compared as whole values: two custom profiles that share a name and
// a seed but differ in a rate are different streams.
func (r *Recording) Holds(p Profile) bool { return r.gen != nil && r.p == p }

// Ops returns the number of ops recorded so far.
func (r *Recording) Ops() int { return r.n }

// bytes returns the recording's memory footprint: its pages'
// capacity, plus a fixed overhead for the rest.
func (r *Recording) bytes() uint64 {
	n := uint64(recordingOverhead)
	for _, page := range r.pages {
		n += uint64(cap(page)) * opBytes
	}
	return n
}

// Reader returns a Source over p's stream from its start. If an
// arena's recording holds another profile's stream, that stream is
// dropped first; a reader of it must not be used again. A built
// recording holds one profile for good: Reader of another panics.
func (r *Recording) Reader(p Profile) *RecordingReader {
	if !r.Holds(p) {
		if r.built {
			panic("trace: Reader of " + p.Name + " on a built recording of " + r.p.Name)
		}
		r.p, r.gen, r.n = p, NewGenerator(p), 0
		for i := range r.pages {
			r.pages[i] = r.pages[i][:0]
		}
	}
	return &RecordingReader{rec: r, gen: r.gen}
}

// extend records up to want more ops into an arena's recording, while
// the generator's count is below limit and the recording below
// RecordingCap.
func (r *Recording) extend(want int, limit uint64) {
	if r.n == RecordingCap {
		return
	}
	i := r.n / pageOps
	if i == len(r.pages) {
		r.pages = append(r.pages, make([]Op, 0, pageOps))
	}
	page := r.pages[i]
	r.pages[i] = page[:len(page)+r.gen.Fill(page[len(page):min(len(page)+want, pageOps)], limit)]
	r.n += len(r.pages[i]) - len(page)
}

// RecordingReader streams a Recording with the generator's stopping
// rule, so a run reads exactly the ops a fresh Generator would hand it.
// View hands out the recorded ops in place; at an arena recording's end
// the reader records the ops a read needs first. Past the recorded
// ops, a built recording's end or an arena's RecordingCap, the reader
// goes on through Fill from its own clone of the generator.
type RecordingReader struct {
	rec    *Recording
	gen    *Generator // the recording's generator when this reader was made
	pos    int
	instrs uint64
	tail   *Generator // private clone once the reader is past the recorded ops
}

// Next produces the next operation, satisfying Source.
func (r *RecordingReader) Next() Op {
	var op [1]Op
	r.Fill(op[:], ^uint64(0))
	return op[0]
}

// Progress returns the instructions represented so far.
func (r *RecordingReader) Progress() uint64 { return r.instrs }

// Clone returns an independent reader at r's position: the two read
// the identical remaining stream. Only a reader of a built recording
// may be cloned. Cloning a reader of an arena's recording panics: its
// pages are reused for the next profile, so nothing may pin a position
// in them.
func (r *RecordingReader) Clone() *RecordingReader {
	if !r.rec.built {
		panic("trace: Clone of a reader of an arena's recording")
	}
	c := *r
	if r.tail != nil {
		c.tail = r.tail.clone()
	}
	return &c
}

// View returns the recorded ops from the reader's position to the end
// of their page without consuming them, and counts no instructions
// until Take says how far the caller read: at least one op while
// Progress() < limit, unless the reader is past the recorded ops and
// goes on only through Fill. The ops may run past limit. At an arena
// recording's end View records up to recordChunk more ops first; past
// the recorded ops it switches the reader to its tail clone and
// returns none.
func (r *RecordingReader) View(limit uint64) []Op {
	rec := r.rec
	if rec.gen != r.gen {
		panic("trace: RecordingReader used after its recording moved to another profile")
	}
	if r.tail != nil {
		return nil
	}
	if r.pos == rec.n {
		if r.instrs >= limit {
			return nil
		}
		// The reader is at the recording's end, so its progress is the
		// generator's: recording up to limit records exactly the ops
		// this read can still use.
		if !rec.built {
			rec.extend(recordChunk, limit)
		}
		if r.pos == rec.n {
			r.tail = rec.gen.clone()
			return nil
		}
	}
	return rec.pages[r.pos/pageOps][r.pos%pageOps:]
}

// Take consumes the first k ops of the last View, which bring
// Progress() to instrs.
func (r *RecordingReader) Take(k int, instrs uint64) {
	r.pos += k
	r.instrs = instrs
}

// Fill writes ops into buf while Progress() < limit, satisfying
// BatchSource: it copies the ops its views admit, then fills from the
// tail clone once the reader is past the recorded ops.
func (r *RecordingReader) Fill(buf []Op, limit uint64) int {
	n := 0
	for n < len(buf) && r.instrs < limit {
		v := r.View(limit)
		if len(v) == 0 {
			break
		}
		v = v[:min(len(v), len(buf)-n)]
		k, instrs := within(v, r.instrs, limit)
		n += copy(buf[n:], v[:k])
		r.Take(k, instrs)
	}
	if r.tail != nil {
		// The clone started where the recording ends, so its count is
		// the reader's.
		n += r.tail.Fill(buf[n:], limit)
		r.instrs = r.tail.Instructions
	}
	return n
}
