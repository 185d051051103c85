// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used to synthesize workload traces and block
// contents. Determinism matters: every experiment in this repository
// must be exactly reproducible from a seed, so we avoid math/rand's
// global state and version-dependent algorithms.
//
// The generator is xoshiro256**, seeded via splitmix64, following the
// reference construction by Blackman and Vigna.
package xrand

import (
	"math"
	"math/bits"
	"sync"
)

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed using splitmix64,
// which guarantees a well-mixed nonzero internal state for any seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns the next 64 random bits. The step is the reference
// transition — s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
// s3 = rotl(s3, 45), where t is the old s1 << 17 — computed over
// locals and stored in one assignment. That keeps the method under
// the inliner's budget, so Float64 and the samplers inline the draw.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean
// m (the number of trials up to and including the first success),
// via the O(1) inverse-transform method — constant time even for very
// large means, unlike trial-by-trial rejection. m must be >= 1.
//
// Samplers drawing many values at one fixed mean should use NewGeom,
// which hoists the constant log(1-p) out of the per-sample path and
// tabulates most draws while producing the bit-identical sample
// stream.
func (r *RNG) Geometric(m float64) int {
	return geomOf(m).Sample(r)
}

// Geom is a geometric sampler for a fixed mean. Sample costs one RNG
// draw; a table answers most draws outright, and the rest pay one
// math.Log. The zero value is a degenerate sampler that always
// returns 1.
type Geom struct {
	logQ float64 // math.Log(1 - 1/m); 0 marks the m <= 1 degenerate case
	// tab holds, per bucket of draws, the sample every draw in the
	// bucket yields, or 0 where Sample must evaluate the expression
	// (see geomTable). Built once by NewGeom and only read after, so
	// copies of a Geom share it safely across goroutines.
	tab []uint16
}

// The sample table's buckets partition the draws u in
// [2^-geomBinades, 1) by their float64 bits: the binary exponent and
// the top geomMantBits mantissa bits. A bucket's index is
// bits>>geomShift - geomFirst; smaller draws index past the table.
const (
	geomMantBits = 6
	geomBinades  = 8
	geomBuckets  = geomBinades << geomMantBits
	geomShift    = 52 - geomMantBits
	geomFirst    = (1023 - geomBinades) << geomMantBits
	// geomMargin is how far, relative to its value, the quotient
	// log(u)/logQ must sit from an integer at both ends of a bucket
	// for the bucket to be tabulated. math.Log is accurate to within
	// an ulp, so the computed quotient is within a few ulps (~1e-15
	// relative) of the true one; the margin dwarfs that.
	geomMargin = 1e-9
)

// geomEnds holds math.Log of each bucket's lowest and highest float64.
// The logs do not depend on the mean, so one process-wide copy, built
// on first use, serves every NewGeom: a table then costs 1024
// divisions, not 1024 logarithms.
var geomEnds = sync.OnceValue(func() *[geomBuckets][2]float64 {
	var ends [geomBuckets][2]float64
	for i := range ends {
		lo := uint64(geomFirst+i) << geomShift
		hi := uint64(geomFirst+i+1)<<geomShift - 1 // the next bucket's first float, less one ulp
		ends[i] = [2]float64{math.Log(math.Float64frombits(lo)), math.Log(math.Float64frombits(hi))}
	}
	return &ends
})

// geomTable tabulates the sampler for logQ. A bucket holds the sample
// n when, at both of its ends, the expression yields n and the
// quotient log(u)/logQ sits at least geomMargin from an integer. The
// true quotient is monotone in u, so across the bucket it stays
// between the two ends' values, inside one integer interval with room
// to spare; the computed quotient of any u in the bucket, off from
// the true one by far less than the margin, truncates to the same
// integer. Every other bucket holds 0.
func geomTable(logQ float64) []uint16 {
	tab := make([]uint16, geomBuckets)
	for i, e := range geomEnds() {
		// The quotient falls as u rises: it is largest at the bucket's
		// lowest draw and smallest at its highest.
		most, least := e[0]/logQ, e[1]/logQ
		k := int(most)
		if k < 0 || k >= math.MaxUint16 {
			continue
		}
		if int(most*(1+geomMargin)) == k && int(least*(1-geomMargin)) == k {
			tab[i] = uint16(k + 1)
		}
	}
	return tab
}

// geomOf returns the table-less sampler for mean m: every draw
// evaluates the expression.
func geomOf(m float64) Geom {
	if m <= 1 {
		return Geom{}
	}
	return Geom{logQ: math.Log(1 - 1/m)}
}

// NewGeom builds a sampler for mean m (trials up to and including the
// first success). Sample(r) returns exactly what r.Geometric(m) would.
func NewGeom(m float64) Geom {
	g := geomOf(m)
	if g.logQ != 0 {
		g.tab = geomTable(g.logQ)
	}
	return g
}

// Sample draws one geometric sample from r: the inverse transform
// (invert) of one Float64 draw, looked up in the table where the
// draw's bucket is tabulated.
func (g Geom) Sample(r *RNG) int {
	if g.logQ == 0 {
		return 1
	}
	u := r.Float64()
	if i := math.Float64bits(u)>>geomShift - geomFirst; i < uint64(len(g.tab)) {
		if n := g.tab[i]; n != 0 {
			return int(n)
		}
	}
	return g.invert(u)
}

// invert is the inverse transform itself: the sample for draw u.
func (g Geom) invert(u float64) int {
	if u == 0 {
		u = 0x1p-53
	}
	n := int(math.Log(u)/g.logQ) + 1
	if n < 1 {
		n = 1
	}
	const cap = 1 << 30 // bound pathological tails
	if n > cap {
		n = cap
	}
	return n
}

// Fill fills b with random bytes.
func (r *RNG) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
