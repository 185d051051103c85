package trace

import (
	"reflect"
	"testing"
)

// readAll drains src through Fill with buffers of size chunk up to
// limit, as the engine's op stream does.
func readAll(src BatchSource, limit uint64, chunk int) []Op {
	var out []Op
	buf := make([]Op, chunk)
	for {
		n := src.Fill(buf, limit)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestRecordingMatchesGenerator: every reader of a recording hands out
// exactly what a fresh generator does under the same limit, whether it
// reads ops already recorded, records as it goes, or both within one
// fill; a profile switch starts the stream over, and switching back
// regenerates the first profile's stream.
func TestRecordingMatchesGenerator(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	milc, _ := ProfileByName("milc")
	var rec Recording
	for _, run := range []struct {
		p     Profile
		limit uint64
		chunk int
	}{
		{gcc, 30_000, 1024},  // records
		{gcc, 400_000, 193},  // replays, then records mid-fill, across pages
		{gcc, 10_000, 1024},  // replays a prefix
		{milc, 20_000, 7},    // switches profile
		{gcc, 200_000, 1024}, // switches back, refilling the kept pages
	} {
		r := rec.Reader(run.p)
		got := readAll(r, run.limit, run.chunk)
		g := NewGenerator(run.p)
		want := readAll(g, run.limit, run.chunk)
		if !reflect.DeepEqual(got, want) || r.Progress() != g.Progress() {
			t.Fatalf("%s to %d: recording reader diverged from the generator (%d vs %d ops, progress %d vs %d)",
				run.p.Name, run.limit, len(got), len(want), r.Progress(), g.Progress())
		}
		if !rec.Holds(run.p) {
			t.Fatalf("recording does not hold %s after reading it", run.p.Name)
		}
		// Next past the limit continues the same stream.
		if op, want := r.Next(), g.Next(); op != want {
			t.Fatalf("%s: Next past the limit gave %+v, generator %+v", run.p.Name, op, want)
		}
	}
	if rec.Holds(milc) {
		t.Fatal("recording still holds milc after switching back to gcc")
	}
}

// TestRecordingReaderOutlivesProfile: a reader whose recording has
// moved to another profile refuses to read instead of handing out the
// other profile's ops.
func TestRecordingReaderOutlivesProfile(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	milc, _ := ProfileByName("milc")
	var rec Recording
	stale := rec.Reader(gcc)
	rec.Reader(milc)
	defer func() {
		if recover() == nil {
			t.Fatal("a stale reader read from a recording of another profile")
		}
	}()
	stale.Next()
}
