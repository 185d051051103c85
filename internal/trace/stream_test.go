package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// streamOps is how many leading ops of each source the stream golden
// hashes.
const streamOps = 500_000

// streamSpec is the custom profile the stream golden pins (the
// write-hungry KV store of ParseProfileSpec's documentation).
const streamSpec = "name=kv,ipc=1.2,stores=80,stack=0.1,distinct=30,wb=5,loads=250,thrash=1,seed=7"

// streamDigest hashes the first n ops of src. Each op is written field
// by field in a fixed binary form, so the digest depends on the op
// values alone, not on Op's field order or padding.
func streamDigest(src Source, n int) string {
	h := sha256.New()
	var rec [14]byte
	for i := 0; i < n; i++ {
		op := src.Next()
		binary.LittleEndian.PutUint32(rec[0:], op.Gap)
		rec[4] = byte(op.Kind)
		binary.LittleEndian.PutUint64(rec[5:], uint64(op.Block))
		rec[13] = 0
		if op.Stack {
			rec[13] = 1
		}
		h.Write(rec[:])
	}
	return fmt.Sprintf("instructions=%d sha256=%x", src.Progress(), h.Sum(nil))
}

// streamLines digests every built-in profile's generator, one phased
// source and one custom-spec profile.
func streamLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, p := range Profiles() {
		lines = append(lines, "profile/"+p.Name+" "+streamDigest(NewGenerator(p), streamOps))
	}
	gcc, _ := ProfileByName("gcc")
	lines = append(lines, "phased/gcc "+streamDigest(NewPhasedSource(gcc, Burst(20_000, 60_000, 2)), streamOps))
	kv, err := ParseProfileSpec(streamSpec)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, "spec/kv "+streamDigest(NewGenerator(kv), streamOps))
	return lines
}

// TestGoldenStreams pins the synthetic op streams themselves: the
// first 500k ops of every source, as SHA-256 digests. The engine
// goldens see the generator only through a few benchmarks at short
// lengths; this golden catches any change to the sampler or the RNG
// that would move any profile's stream. Rewrite it with -update only
// for an intended change to the workload model.
func TestGoldenStreams(t *testing.T) {
	got := streamLines(t)
	golden := filepath.Join("testdata", "streams.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -run TestGoldenStreams -update` to create it)", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d stream rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}
