package xrand

// Test-only views of the sampler's table for the external tests.

// GeomTable returns g's sample table.
func GeomTable(g Geom) []uint16 { return g.tab }

// GeomBucketBits returns the float64 bits of bucket i's lowest draw;
// the bucket ends one below GeomBucketBits(i+1).
func GeomBucketBits(i int) uint64 { return uint64(geomFirst+i) << geomShift }
