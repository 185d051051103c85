package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety pins the central contract: a nil tracer and the nil
// spans it hands out accept every call without doing anything.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("j1", "job", SpanContext{}, String("kind", "sweep"))
	if sp != nil {
		t.Fatal("nil tracer started a span")
	}
	child := sp.Child("attempt")
	if child != nil {
		t.Fatal("nil span spawned a child")
	}
	sp.Event("submit", Int("n", 1))
	sp.SetAttr(Bool("ok", true))
	sp.End()
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span has a valid context")
	}
	if _, ok := tr.Flat("j1"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if _, ok := tr.Tree("j1"); ok {
		t.Fatal("nil tracer returned a tree")
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracer non-empty")
	}
	// The context helpers tolerate the nil span too.
	ctx := ContextWithSpan(context.Background(), nil)
	if got := SpanFromContext(ctx); got != nil {
		t.Fatal("nil span round-tripped through context as non-nil")
	}
}

// TestSpanTree builds the job-shaped tree and checks the snapshot
// nests correctly with attributes, events, and durations.
func TestSpanTree(t *testing.T) {
	var now time.Time
	clock := func() time.Time { now = now.Add(time.Millisecond); return now }
	tr := New(Config{Now: clock})

	root := tr.StartRoot("j1", "job", SpanContext{}, String("kind", "sweep"))
	root.Event("submit", Int("queued", 1))
	attempt := root.Child("attempt", Int("attempt", 1))
	run := attempt.Child("sweep-point", String("scheme", "sp"), String("bench", "gcc"))
	run.SetAttr(Uint64("cycles", 12345))
	run.End()
	attempt.End()
	root.Event("finish", String("state", "succeeded"))
	root.End()

	tree, ok := tr.Tree("j1")
	if !ok {
		t.Fatal("no tree for j1")
	}
	if tree.Name != "job" || tree.Attrs["kind"] != "sweep" {
		t.Fatalf("root: %+v", tree)
	}
	if len(tree.Events) != 2 || tree.Events[0].Name != "submit" || tree.Events[1].Name != "finish" {
		t.Fatalf("root events: %+v", tree.Events)
	}
	if tree.End == nil || tree.DurationMS <= 0 {
		t.Fatalf("root not finished: %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "attempt" {
		t.Fatalf("children: %+v", tree.Children)
	}
	runData := tree.Children[0].Children[0]
	if runData.Name != "sweep-point" || runData.Attrs["cycles"] != "12345" ||
		runData.Attrs["bench"] != "gcc" {
		t.Fatalf("run span: %+v", runData)
	}
	// Every span shares the root's trace ID and chains parents.
	if runData.TraceID != tree.TraceID || runData.ParentSpanID != tree.Children[0].SpanID {
		t.Fatalf("identity chain broken: %+v", runData)
	}
}

// TestInboundParent pins the propagation seam: a root started from an
// inbound SpanContext adopts its trace ID and parents under its span.
func TestInboundParent(t *testing.T) {
	tr := New(Config{})
	parent, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("reference traceparent did not parse")
	}
	root := tr.StartRoot("j1", "job", parent)
	if got := root.Context().TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID %s not adopted", got)
	}
	root.End()
	flat, _ := tr.Flat("j1")
	if flat[0].ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("root parent %q", flat[0].ParentSpanID)
	}
}

// TestBoundedStore checks eviction: the store retains at most Capacity
// traces and drops the oldest.
func TestBoundedStore(t *testing.T) {
	tr := New(Config{Capacity: 3})
	for i := 0; i < 5; i++ {
		tr.StartRoot(fmt.Sprintf("j%d", i), "job", SpanContext{}).End()
	}
	if tr.Len() != 3 {
		t.Fatalf("store holds %d traces, want 3", tr.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := tr.Flat(fmt.Sprintf("j%d", i)); ok {
			t.Errorf("evicted trace j%d still present", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := tr.Flat(fmt.Sprintf("j%d", i)); !ok {
			t.Errorf("recent trace j%d missing", i)
		}
	}
}

// TestJSONLExport checks both export paths: the sink written on root
// End and the on-demand WriteJSONL, each one JSON object per span.
func TestJSONLExport(t *testing.T) {
	var sink bytes.Buffer
	tr := New(Config{JSONL: &sink})
	root := tr.StartRoot("j1", "job", SpanContext{})
	root.Child("attempt").End()
	root.End()

	check := func(name string, data []byte) {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: %d lines, want 2:\n%s", name, len(lines), data)
		}
		for _, ln := range lines {
			var sd SpanData
			if err := json.Unmarshal([]byte(ln), &sd); err != nil {
				t.Fatalf("%s: bad line %q: %v", name, ln, err)
			}
			if sd.TraceID == "" || sd.SpanID == "" || sd.End == nil {
				t.Fatalf("%s: incomplete span %+v", name, sd)
			}
		}
	}
	check("sink", sink.Bytes())

	var out bytes.Buffer
	if err := tr.WriteJSONL("j1", &out); err != nil {
		t.Fatal(err)
	}
	check("WriteJSONL", out.Bytes())
	if err := tr.WriteJSONL("nonesuch", &out); err == nil {
		t.Fatal("WriteJSONL of an unknown trace did not error")
	}
}

// TestConcurrentSpans hammers one trace from many goroutines while a
// reader snapshots it — the worker-vs-HTTP-handler shape, under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{})
	root := tr.StartRoot("j1", "job", SpanContext{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.Child("run", Int("g", g), Int("i", i))
				sp.Event("tick")
				sp.SetAttr(Bool("done", true))
				sp.End()
			}
		}(g)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tr.Flat("j1")
				tr.Tree("j1")
			}
		}
	}()
	wg.Wait()
	close(stop)
	root.End()
	flat, _ := tr.Flat("j1")
	if len(flat) != 1+4*50 {
		t.Fatalf("span count %d, want %d", len(flat), 1+4*50)
	}
}

// TestContextPropagation round-trips a span through a context.
func TestContextPropagation(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartRoot("j1", "job", SpanContext{})
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatal("span did not round-trip through context")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatal("empty context produced a span")
	}
}
