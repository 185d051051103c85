package engine

import (
	"fmt"
	"math"

	"plp/internal/cache"
	"plp/internal/trace"
)

// Shared metadata-cache lookups. A sharing scheme (see
// SchemeSpec.sharesLookups) looks its three metadata caches up in an
// order that the op stream and a few config fields fix alone: every
// load's counter, and every persisted store's counter, MAC and whole
// leaf-to-root BMT path. Its timing decides when a lookup happens,
// never which line it looks up, so every such run over one stream and
// cache geometry sees the same hits and misses. The first sharing run
// of a Run on an arena records where each cache missed in the arena's
// lookupRecording; a later sharing run with the same key replays those
// misses and searches no cache. A replayed miss still pays its NVM
// read and its attribution mark, so timing is unchanged.

// lookupCap bounds the misses a recording keeps per cache (4 MB of
// gaps). A recording run that misses more stops recording that cache,
// goes on live and publishes nothing, so the next sharing run records
// again.
const lookupCap = 1 << 20

// lookupKey is what fixes a sharing run's lookups: the stream (the
// arena recording's profile, the run's length and warm-up, and whether
// stack stores persist), the lines it names (the tree's depth fixes
// each leaf's path) and the caches' geometry. Timing fields (latencies,
// queue and table sizes, TriadLevels, NVM) and the hooks stay out:
// they change when a lookup happens, never which line it looks up.
type lookupKey struct {
	prof                 trace.Profile
	instructions, warmup uint64
	fullMemory           bool
	bmtLevels            int
	ctrKB, macKB, bmtKB  int
	ways                 int
}

// lookupKeyOf returns the key of a run of cfg, normalized, over p's
// stream.
func lookupKeyOf(cfg Config, p trace.Profile) lookupKey {
	return lookupKey{
		prof:         p,
		instructions: cfg.Instructions,
		warmup:       cfg.Warmup,
		fullMemory:   cfg.FullMemory,
		bmtLevels:    cfg.BMTLevels,
		ctrKB:        cfg.CtrCacheKB,
		macKB:        cfg.MACCacheKB,
		bmtKB:        cfg.BMTCacheKB,
		ways:         cfg.MDCWays,
	}
}

// tape is one cache's part of a lookup recording.
type tape struct {
	// gaps holds the measured region's misses as distances: the first
	// miss's position in the run's lookups, then each miss's distance
	// from the one before.
	gaps    []uint32
	lookups uint64      // the measured region's lookups
	sum     uint64      // the lines they looked up, summed mod 2^64
	stats   cache.Stats // the cache's statistics at the run's end
	over    bool        // a gap or the miss count passed its bound
}

// lookupRecording is an arena's record of one sharing run's lookups
// in its three metadata caches (counter, MAC, BMT). It is published
// (valid) only once the recording run completed; a cancelled or
// overflowed recording leaves it invalid, so nothing replays it.
type lookupRecording struct {
	key   lookupKey
	valid bool
	tapes [3]tape
}

// mdc is one metadata cache as a sharing run looks it up (a live run
// calls the cache itself). A recording run looks the cache up live and
// keeps the lookups on its tape: it counts them, sums their lines and
// appends each miss's position. A replaying run searches nothing: it
// counts and sums its lookups too, and misses exactly at the tape's
// positions.
type mdc struct {
	c      *cache.Cache
	t      *tape // recorded into (nil once it passed its bounds) or replayed
	replay bool
	n, sum uint64
	// next is the position of the next lookup that hit hands to
	// lookup: a replay's next recorded miss, else the next lookup.
	next uint64
	last uint64 // recording: the last miss's position
	i    int    // replaying: the index of the gap after next
}

// hit looks l up, reporting whether it is cached; write marks a write.
// A replayed hit costs a compare.
func (d *mdc) hit(l cache.Line, write bool) bool {
	if d.n != d.next {
		d.n++
		d.sum += uint64(l)
		return true
	}
	return d.lookup(l, write)
}

// lookup is hit at next: a replayed miss, which moves next to the
// following recorded miss, or a recorded lookup.
func (d *mdc) lookup(l cache.Line, write bool) bool {
	pos := d.n
	d.n++
	d.sum += uint64(l)
	if d.replay {
		d.advance()
		return false
	}
	d.next = d.n
	if d.c.Access(l, write) {
		return true
	}
	if t := d.t; t != nil {
		if gap := pos - d.last; gap > math.MaxUint32 || len(t.gaps) == lookupCap {
			// Past its bounds the tape stops, and the run goes on live.
			t.over, d.t = true, nil
		} else {
			t.gaps = append(t.gaps, uint32(gap))
			d.last = pos
		}
	}
	return false
}

// advance moves a replay's next to its tape's next miss, or past the
// last one, never to miss again.
func (d *mdc) advance() {
	if d.i == len(d.t.gaps) {
		d.next = math.MaxUint64
		return
	}
	d.next += uint64(d.t.gaps[d.i])
	d.i++
}

// shareLookups makes a sharing run of the machine's config over p's
// stream, read from the arena's recording, share its lookups: it
// replays the arena's lookup recording when that has the run's key,
// else records a new one. Other runs stay live: those of a scheme whose
// lookups depend on its timing or its epochs, IdealMDC runs (no
// lookups) and ReadVerification runs (their Contains probes need the
// live caches). It must run before warm-up.
func (m *machine) shareLookups(p trace.Profile) {
	if m.spec == nil || !m.spec.sharesLookups || m.cfg.IdealMDC || m.cfg.ReadVerification {
		return
	}
	m.shared = true
	r := &m.ar.look
	key := lookupKeyOf(m.cfg, p)
	replay := r.valid && r.key == key
	if !replay {
		r.key, r.valid = key, false
	}
	caches := [3]*cache.Cache{m.ctrCache, m.macCache, m.bmtCache}
	for i, d := range m.mdcs() {
		t := &r.tapes[i]
		if !replay {
			*t = tape{gaps: t.gaps[:0]}
		}
		*d = mdc{c: caches[i], t: t, replay: replay}
		if replay {
			d.advance()
		}
	}
}

// closeLookups ends a completed run's sharing: a recording run
// publishes its recording unless a tape passed its bounds, and a
// replaying run checks that it made the recorded lookups, panicking if
// not, since its Result would then be wrong. A cancelled run stopped
// early, so it publishes and checks nothing.
func (m *machine) closeLookups() {
	if !m.shared || m.cancelStop {
		return
	}
	r := &m.ar.look
	for i, d := range m.mdcs() {
		t := &r.tapes[i]
		switch {
		case d.replay:
			if d.n != t.lookups || d.sum != t.sum {
				panic(fmt.Sprintf("engine: %s replayed %d %s-cache lookups summing to %#x, but the recording holds %d summing to %#x",
					m.cfg.Scheme, d.n, mdcNames[i], d.sum, t.lookups, t.sum))
			}
		case t.over:
			return
		default:
			t.lookups, t.sum, t.stats = d.n, d.sum, d.c.Stats
		}
	}
	r.valid = true
}

// mdcs returns the machine's three metadata caches as a sharing run
// looks them up, in recording order, which mdcNames names.
func (m *machine) mdcs() [3]*mdc { return [3]*mdc{&m.ctr, &m.mac, &m.bmt} }

var mdcNames = [3]string{"ctr", "mac", "bmt"}

// hitRates returns the run's counter, MAC and BMT hit rates: the
// recorded ones in a replay, else the caches'.
func (m *machine) hitRates() (ctr, mac, bmt float64) {
	if m.ctr.replay {
		return m.ctr.t.stats.HitRate(), m.mac.t.stats.HitRate(), m.bmt.t.stats.HitRate()
	}
	return m.ctrCache.Stats.HitRate(), m.macCache.Stats.HitRate(), m.bmtCache.Stats.HitRate()
}
