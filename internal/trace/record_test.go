package trace

import (
	"reflect"
	"sync"
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
func readViews(src *RecordingReader, limit uint64, take int) []Op {
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

// TestViewsMatchGenerator: reading an arena's recording, a whole built
// recording and capped ones through View and Take (and Fill past the
// ops they hold) hands out exactly a fresh generator's ops under the
// limit, in takes that end inside a view and that run to its end, and
// leaves Progress at the generator's count.
func TestViewsMatchGenerator(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	var arena Recording
	for _, run := range []struct {
		limit uint64
		take  int
	}{{30_000, 1 << 30}, {400_000, 333}, {10_000, 5}, {420_000, 70_000}} {
		g := NewGenerator(gcc)
		want := readAll(g, run.limit, 1024)
		r := arena.Reader(gcc)
		if got := readViews(r, run.limit, run.take); !reflect.DeepEqual(got, want) || r.Progress() != g.Progress() {
			t.Fatalf("arena recording to %d in takes of %d: %d ops at %d instructions, generator %d at %d",
				run.limit, run.take, len(got), r.Progress(), len(want), g.Progress())
		}
		for _, maxOps := range []int{len(want), len(want) / 2, 1} {
			rec := build(gcc, run.limit, maxOps)
			r := rec.Reader(gcc)
			if got := readViews(r, run.limit, run.take); !reflect.DeepEqual(got, want) || r.Progress() != g.Progress() {
				t.Fatalf("built recording of %d ops to %d in takes of %d: %d ops at %d instructions, generator %d at %d",
					rec.Ops(), run.limit, run.take, len(got), r.Progress(), len(want), g.Progress())
			}
		}
	}
}

// instrsOf returns the instructions ops represent.
func instrsOf(ops []Op) uint64 {
	var n uint64
	for _, op := range ops {
		n += uint64(op.Gap) + 1
	}
	return n
}

// TestBuiltRecordingShared: a built recording never changes, so any
// number of goroutines share it. Eight read one store recording, under
// a bound that ends mid-page, each through its own reader from op 0
// past the recording's end into the tail, and through clones taken
// mid-page, on a page boundary and past the end; every stream equals a
// fresh generator's, op for op and in Progress. Run it under -race.
func TestBuiltRecordingShared(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	const instr, limit = 300_000, 450_000
	maxOps := pageOps + pageOps/2
	rec := NewStore(recordingOverhead+uint64(maxOps)*opBytes).Get(gcc, instr)
	g := NewGenerator(gcc)
	want := readAll(g, limit, 1024)
	if rec.Ops() != maxOps || len(want) <= maxOps+8 {
		t.Fatalf("recording holds %d ops of %d read, want the bound's %d to cut it short", rec.Ops(), len(want), maxOps)
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rec.Reader(gcc)
			var got []Op
			buf := make([]Op, 1000+w)
			type clone struct {
				r  *RecordingReader
				at int // ops read before it
			}
			var clones []clone
			for _, cut := range []int{pageOps/2 + w, pageOps, maxOps + 1 + w, len(want)} {
				for len(got) < cut {
					n := r.Fill(buf[:min(len(buf), cut-len(got))], limit)
					if n == 0 {
						break
					}
					got = append(got, buf[:n]...)
				}
				if r.Progress() != instrsOf(got) {
					t.Errorf("reader %d at op %d: progress %d, want %d", w, len(got), r.Progress(), instrsOf(got))
					return
				}
				if cut < len(want) {
					clones = append(clones, clone{r.Clone(), len(got)})
				}
			}
			if !reflect.DeepEqual(got, want) || r.Progress() != g.Progress() {
				t.Errorf("reader %d: %d ops at %d instructions, generator %d at %d", w, len(got), r.Progress(), len(want), g.Progress())
				return
			}
			for _, c := range clones {
				rest := readAll(c.r, limit, 193)
				if !reflect.DeepEqual(rest, want[c.at:]) || c.r.Progress() != g.Progress() {
					t.Errorf("reader %d: a clone taken at op %d read %d ops to %d instructions, generator %d to %d",
						w, c.at, len(rest), c.r.Progress(), len(want)-c.at, g.Progress())
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecordingRefusesMisuse: what would let one reader see another's
// stream panics. A reader of an arena's recording cannot be cloned,
// because its pages move to the next profile; a built recording
// serves only the profile it holds.
func TestRecordingRefusesMisuse(t *testing.T) {
	gcc, _ := ProfileByName("gcc")
	milc, _ := ProfileByName("milc")
	var arena Recording
	built := NewStore(0).Get(gcc, 10_000)
	for name, misuse := range map[string]func(){
		"Clone of an arena recording's reader":           func() { arena.Reader(gcc).Clone() },
		"Reader of another profile on a built recording": func() { built.Reader(milc) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
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
