package hier

import "plp/internal/cache"

// The residency filter covers the lines below filterLines (1 GB of
// 64-byte lines, past the synthetic address map's 8.4M blocks) in
// chunks of chunkLines lines, a 4 KB bitmap each, allocated when a
// line of the chunk is first brought in. Its memory therefore follows
// the address ranges a hierarchy touches, up to 2 MB.
const (
	chunkShift  = 15
	chunkLines  = 1 << chunkShift
	chunkWords  = chunkLines / 64
	filterLines = 1 << 24
)

// filter is a hierarchy's "possibly resident" bit per line: a line any
// level holds has its bit set. A demand access sets the bit of the
// line it brings in, Restore sets the bits of every line a snapshot
// holds, and Reset clears them all; nothing else brings a line into a
// level (a writeback fill moves down a line the level above held), so
// a clear bit means no level holds the line. Bits of lines evicted
// since stay set, which only sends their accesses down the lookup
// path.
type filter struct {
	chunks [filterLines / chunkLines]*[chunkWords]uint64
}

// add sets l's bit and reports whether it was clear, so that no level
// holds l. A line past the filter's range reports false.
func (f *filter) add(l cache.Line) bool {
	if uint64(l) >= filterLines {
		return false
	}
	c := f.chunks[l>>chunkShift]
	if c == nil {
		c = new([chunkWords]uint64)
		f.chunks[l>>chunkShift] = c
	}
	w, bit := &c[l>>6&(chunkWords-1)], uint64(1)<<(l&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// reset clears every bit, keeping the chunks.
func (f *filter) reset() {
	for _, c := range f.chunks {
		if c != nil {
			clear(c[:])
		}
	}
}
