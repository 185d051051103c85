package xrand_test

import (
	"fmt"
	"math"
	"testing"

	"plp/internal/trace"
	"plp/internal/xrand"
)

// inverse is the geometric inverse transform, written out as the
// reference the samplers must reproduce draw for draw: one uniform
// draw u (none when m <= 1), then int(log(u)/log(1-1/m)) + 1, clamped
// to [1, 2^30].
func inverse(r *xrand.RNG, m float64) int {
	if m <= 1 {
		return 1
	}
	return invertAt(r.Float64(), math.Log(1-1/m))
}

// invertAt is the expression at draw u.
func invertAt(u, logQ float64) int {
	if u == 0 {
		u = 0x1p-53
	}
	n := int(math.Log(u)/logQ) + 1
	if n < 1 {
		n = 1
	}
	if n > 1<<30 {
		n = 1 << 30
	}
	return n
}

// sampledMeans are the means the generator samples at — every built-in
// profile's instruction-gap mean and the reuse-lag mean of 16 — plus
// corner cases: degenerate means, a mean just above 1 and huge means.
func sampledMeans() []float64 {
	var ms []float64
	for _, p := range trace.Profiles() {
		// trace.NewGenerator's gap mean, computed the same way.
		memPKI := p.StoresPKI() + p.LoadsPKI
		if memPKI <= 0 {
			memPKI = 1
		}
		meanGap := max(1000/memPKI-1, 0)
		ms = append(ms, meanGap+1)
	}
	return append(ms, 16, 0, 0.5, 1, 1.001, 2, 1000, 1e9)
}

// TestGeomMatchesGeometric pins Geom.Sample, table included, to the
// written-out inverse transform over 10M draws per mean: the same
// values and the same RNG consumption, including none at all for
// m <= 1. RNG.Geometric, which has no table, is held to the same
// reference over a shorter stream.
func TestGeomMatchesGeometric(t *testing.T) {
	check := func(t *testing.T, m float64, draws int, sample func(*xrand.RNG) int) {
		ref, got := xrand.New(42), xrand.New(42)
		for i := 0; i < draws; i++ {
			if v, want := sample(got), inverse(ref, m); v != want {
				t.Fatalf("m=%g draw %d: sampler=%d, expression=%d", m, i, v, want)
			}
		}
		if ref.Uint64() != got.Uint64() {
			t.Fatalf("m=%g: RNG states diverged after %d draws", m, draws)
		}
	}
	for _, m := range sampledMeans() {
		t.Run(fmt.Sprintf("m=%g", m), func(t *testing.T) {
			t.Parallel()
			check(t, m, 10_000_000, xrand.NewGeom(m).Sample)
			check(t, m, 100_000, func(r *xrand.RNG) int { return r.Geometric(m) })
		})
	}
}

// TestGeomTableExact checks every tabulated bucket where the margin
// argument says it holds: at the bucket's two end floats and at the
// 4096 floats on either side of each, the expression yields the
// tabulated sample. It also reports how many draws the table answers.
func TestGeomTableExact(t *testing.T) {
	const near = 4096
	for _, m := range sampledMeans() {
		g := xrand.NewGeom(m)
		tab := xrand.GeomTable(g)
		if m <= 1 {
			if tab != nil {
				t.Fatalf("m=%g: degenerate sampler has a table", m)
			}
			continue
		}
		logQ := math.Log(1 - 1/m)
		share := 0.0
		for i, n := range tab {
			if n == 0 {
				continue
			}
			lo, hi := xrand.GeomBucketBits(i), xrand.GeomBucketBits(i+1)-1
			share += math.Float64frombits(hi) - math.Float64frombits(lo)
			for _, end := range []uint64{lo, hi} {
				for b := end - near; b <= end+near; b++ {
					if v := invertAt(math.Float64frombits(b), logQ); v != int(n) {
						t.Fatalf("m=%g bucket %d: u=%v gives %d, table holds %d", m, i, math.Float64frombits(b), v, n)
					}
				}
			}
		}
		t.Logf("m=%-10.6g table answers %.1f%% of draws", m, 100*share)
	}
}
