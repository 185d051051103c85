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

// readViews drains src up to limit as the engine's op stream does: it
// walks each View in place and takes a prefix of it, at most take ops
// under the limit, and fills a buffer once the source has no ops of
// its own in memory.
func readViews(src ViewSource, limit uint64, take int) []Op {
	var out []Op
	buf := make([]Op, 1024)
	consumed := src.Progress()
	for consumed < limit {
		if v := src.View(limit); len(v) > 0 {
			k, c := within(v[:min(len(v), take)], consumed, limit)
			out = append(out, v[:k]...)
			src.Take(k, c)
			consumed = c
			continue
		}
		n := src.Fill(buf, limit)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
		consumed = src.Progress()
	}
	return out
}

// TestViewsMatchGenerator: reading a recording, a whole store batch
// and capped ones through View and Take (and Fill past the ops they
// hold) hands out exactly a fresh generator's ops under the limit, in
// takes that end inside a view and that run to its end, and leaves
// Progress at the generator's count.
func TestViewsMatchGenerator(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	var rec Recording
	for _, run := range []struct {
		limit uint64
		take  int
	}{{30_000, 1 << 30}, {400_000, 333}, {10_000, 5}, {420_000, 70_000}} {
		g := NewGenerator(gcc)
		want := readAll(g, run.limit, 1024)
		r := rec.Reader(gcc)
		if got := readViews(r, run.limit, run.take); !reflect.DeepEqual(got, want) || r.Progress() != g.Progress() {
			t.Fatalf("recording to %d in takes of %d: %d ops at %d instructions, generator %d at %d",
				run.limit, run.take, len(got), r.Progress(), len(want), g.Progress())
		}
		for _, maxOps := range []int{len(want), len(want) / 2, 1} {
			b := materialize(gcc, run.limit, maxOps)
			r := b.Replay()
			if got := readViews(r, run.limit, run.take); !reflect.DeepEqual(got, want) || r.Progress() != g.Progress() {
				t.Fatalf("batch of %d ops to %d in takes of %d: %d ops at %d instructions, generator %d at %d",
					len(b.ops), run.limit, run.take, len(got), r.Progress(), len(want), g.Progress())
			}
		}
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
