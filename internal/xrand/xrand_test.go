package xrand

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40, ^uint64(0)} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUint64nUniformityRough(t *testing.T) {
	r := New(3)
	const buckets, samples = 8, 80000
	var count [buckets]int
	for i := 0; i < samples; i++ {
		count[r.Uint64n(buckets)]++
	}
	want := samples / buckets
	for i, c := range count {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(5)
	const samples = 50000
	sum := 0
	for i := 0; i < samples; i++ {
		sum += r.Geometric(8)
	}
	mean := float64(sum) / samples
	if mean < 7 || mean > 9 {
		t.Fatalf("geometric mean %v, want ~8", mean)
	}
}

func TestGeometricMinimum(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if g := r.Geometric(0.1); g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
	}
}

func TestFillDeterministicAndCoversTail(t *testing.T) {
	a := make([]byte, 13)
	b := make([]byte, 13)
	New(9).Fill(a)
	New(9).Fill(b)
	if string(a) != string(b) {
		t.Fatal("Fill not deterministic")
	}
	zero := 0
	for _, x := range a {
		if x == 0 {
			zero++
		}
	}
	if zero == len(a) {
		t.Fatal("Fill left buffer all zero")
	}
}

func TestMul64MatchesBigProperty(t *testing.T) {
	// hi*2^64 + lo must equal a*b; check via the low/high halves identity
	// using quick over random inputs against the builtin 64-bit product
	// for the low word and a schoolbook recomputation for the high word.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		if lo != a*b {
			return false
		}
		// recompute hi independently
		const mask = 0xffffffff
		aLo, aHi := a&mask, a>>32
		bLo, bHi := b&mask, b>>32
		t1 := aHi*bLo + (aLo*bLo)>>32
		wantHi := aHi*bHi + t1>>32 + (t1&mask+aLo*bHi)>>32
		return hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkGeomSample draws at a typical profile's gap mean (~2.5),
// where the table answers nearly every draw, and at the generator's
// reuse-lag mean of 16.
func BenchmarkGeomSample(b *testing.B) {
	for _, m := range []float64{2.5, 16} {
		b.Run(fmt.Sprint("mean=", m), func(b *testing.B) {
			g, r := NewGeom(m), New(1)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += g.Sample(r)
			}
			sink = sum
		})
	}
}

// BenchmarkNewGeom is the cost of building one sampler, table included.
func BenchmarkNewGeom(b *testing.B) {
	geomEnds() // the shared endpoint logs are a one-time cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGeom(2.5 + float64(i%64)/64)
		sink = len(g.tab)
	}
}

var sink int

// TestUint64MatchesReference pins the RNG step to the reference
// xoshiro256** transition, written out one state update at a time.
func TestUint64MatchesReference(t *testing.T) {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	r := New(42)
	s := r.s
	for i := 0; i < 1_000_000; i++ {
		want := rotl(s[1]*5, 7) * 9
		t1 := s[1] << 17
		s[2] ^= s[0]
		s[3] ^= s[1]
		s[1] ^= s[2]
		s[0] ^= s[3]
		s[2] ^= t1
		s[3] = rotl(s[3], 45)
		if got := r.Uint64(); got != want || r.s != s {
			t.Fatalf("step %d: Uint64 = %#x state %x, reference %#x state %x", i, got, r.s, want, s)
		}
	}
}

// TestGeomDegenerateConsumesNothing pins that means <= 1 short-circuit
// to 1 without advancing the stream (callers depend on this for
// bit-identical traces).
func TestGeomDegenerateConsumesNothing(t *testing.T) {
	r := New(7)
	want := r.Uint64()
	r2 := New(7)
	g := NewGeom(0.5)
	for i := 0; i < 10; i++ {
		if v := g.Sample(r2); v != 1 {
			t.Fatalf("degenerate sample = %d, want 1", v)
		}
	}
	if got := r2.Uint64(); got != want {
		t.Fatal("degenerate Geom.Sample consumed RNG state")
	}
}
