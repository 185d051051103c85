// Package obs is the service-layer observability kit: per-request span
// tracing with W3C trace-context propagation, a bounded in-memory span
// store, and correlated structured logging (log/slog).
//
// The design contract mirrors the engine's tracing modes (docs/MODEL.md
// §11): everything here is observational and nil-checked. A nil
// *Tracer starts nil *Spans, and every Span method is a no-op on a nil
// receiver, so instrumented code reads straight-line — no "if traced"
// branches — while the untraced path does no work. Spans wrap engine
// runs from the outside (job → sweep-point → engine run);
// they never reach inside a simulation, so simulated cycles are
// bit-identical with tracing on or off by construction.
//
// Traces are stored per owner key (the job ID) in a bounded ring:
// once Capacity trees are retained, the oldest is evicted. A finished
// root span can additionally stream its whole tree to a JSONL sink for
// offline analysis.
package obs

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace (W3C trace-context: 16 bytes).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes).
type SpanID [8]byte

// String renders the ID as lowercase hex (the wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex (the wire form).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is all zeroes (invalid per the spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per the spec).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated identity of a span: what crosses
// process boundaries in a traceparent header. The zero value is "no
// inbound context" — a root started from it gets a fresh trace ID.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries a usable trace identity.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span or event. Values are
// strings: span attributes exist to be read by humans and JSON
// consumers, not aggregated (aggregation is internal/metrics' job).
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, fmt.Sprintf("%d", v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{k, fmt.Sprintf("%d", v)} }

// Uint64 builds an unsigned integer attribute.
func Uint64(k string, v uint64) Attr { return Attr{k, fmt.Sprintf("%d", v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{k, fmt.Sprintf("%t", v)} }

// Duration builds a duration attribute (Go duration syntax).
func Duration(k string, d time.Duration) Attr { return Attr{k, d.String()} }

// Event is one timestamped point annotation inside a span.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Config parameterizes a Tracer.
type Config struct {
	// Capacity bounds the number of retained traces; the oldest is
	// evicted once it is exceeded. Default 256.
	Capacity int
	// JSONL, when non-nil, receives every finished trace as one JSON
	// object per span (flat, not nested) the moment its root span ends
	// — the offline-analysis export. Writes are serialized.
	JSONL io.Writer
	// Now is the clock seam (tests); nil means time.Now.
	Now func() time.Time
}

// Tracer owns a bounded store of span trees keyed by owner (job ID).
// A nil *Tracer is valid and traces nothing.
type Tracer struct {
	cap   int
	now   func() time.Time
	jsonl io.Writer

	mu     sync.Mutex
	traces map[string]*traceRec
	order  []string

	jsonlMu sync.Mutex
}

// traceRec is one trace's mutable state; its mu guards every span in
// the tree (spans are created and mutated by worker goroutines while
// HTTP handlers snapshot them).
type traceRec struct {
	mu    sync.Mutex
	spans []*Span // insertion order; spans[0] is the root
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracer{
		cap:    cfg.Capacity,
		now:    cfg.Now,
		jsonl:  cfg.JSONL,
		traces: make(map[string]*traceRec),
	}
}

// idSeq is the fallback ID source should crypto/rand ever fail.
var idSeq atomic.Uint64

func randTraceID() TraceID {
	var id TraceID
	if _, err := crand.Read(id[:]); err != nil || id.IsZero() {
		id[0] = 1
		binary.BigEndian.PutUint64(id[8:], idSeq.Add(1))
	}
	return id
}

func randSpanID() SpanID {
	var id SpanID
	if _, err := crand.Read(id[:]); err != nil || id.IsZero() {
		binary.BigEndian.PutUint64(id[:], idSeq.Add(1)|1<<63)
	}
	return id
}

// Span is one timed operation in a trace. A nil *Span is valid: every
// method no-ops, Child returns nil, Context returns the zero context —
// the single property that lets instrumented code skip all "is tracing
// on" branches.
type Span struct {
	tracer *Tracer
	rec    *traceRec

	traceID TraceID
	id      SpanID
	parent  SpanID

	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
	events []Event
}

// StartRoot begins a new trace under the given owner key (the job ID).
// If parent is valid (an inbound traceparent), the new trace adopts
// its trace ID and records its span ID as the root's parent — the
// propagation seam a coordinator→worker split rides. A nil tracer
// returns a nil span.
func (t *Tracer) StartRoot(key, name string, parent SpanContext, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{
		tracer: t,
		rec:    &traceRec{},
		name:   name,
		id:     randSpanID(),
		start:  t.now(),
		attrs:  attrs,
	}
	if parent.Valid() {
		sp.traceID, sp.parent = parent.TraceID, parent.SpanID
	} else {
		sp.traceID = randTraceID()
	}
	sp.rec.spans = []*Span{sp}

	t.mu.Lock()
	if _, ok := t.traces[key]; !ok {
		t.order = append(t.order, key)
	}
	t.traces[key] = sp.rec
	for len(t.order) > t.cap {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
	t.mu.Unlock()
	return sp
}

// Child begins a sub-span. Nil-safe: a nil receiver returns nil.
func (sp *Span) Child(name string, attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	c := &Span{
		tracer:  sp.tracer,
		rec:     sp.rec,
		traceID: sp.traceID,
		id:      randSpanID(),
		parent:  sp.id,
		name:    name,
		start:   sp.tracer.now(),
		attrs:   attrs,
	}
	sp.rec.mu.Lock()
	sp.rec.spans = append(sp.rec.spans, c)
	sp.rec.mu.Unlock()
	return c
}

// Event records a timestamped annotation on the span.
func (sp *Span) Event(name string, attrs ...Attr) {
	if sp == nil {
		return
	}
	now := sp.tracer.now()
	sp.rec.mu.Lock()
	sp.events = append(sp.events, Event{Name: name, Time: now, Attrs: attrs})
	sp.rec.mu.Unlock()
}

// SetAttr adds attributes to the span (e.g. results known only after
// the work ran: cycles, wall time, outcome).
func (sp *Span) SetAttr(attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.rec.mu.Lock()
	sp.attrs = append(sp.attrs, attrs...)
	sp.rec.mu.Unlock()
}

// End closes the span. Ending the root span finishes the trace: it is
// exported to the tracer's JSONL sink (if any). End is
// idempotent; events and attributes added after End are dropped
// silently by snapshot consumers reading the end timestamp.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	now := sp.tracer.now()
	sp.rec.mu.Lock()
	if sp.end.IsZero() {
		sp.end = now
	}
	root := sp.rec.spans[0] == sp
	sp.rec.mu.Unlock()
	if root && sp.tracer.jsonl != nil {
		sp.tracer.exportJSONL(sp.rec)
	}
}

// Context returns the span's propagated identity (zero for nil spans).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.traceID, SpanID: sp.id}
}

// ---------------------------------------------------------------------
// Snapshots and export

// EventData is an Event's JSON view.
type EventData struct {
	Name  string            `json:"name"`
	Time  time.Time         `json:"time"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SpanData is a Span's JSON view. Tree snapshots populate Children;
// flat (JSONL) exports leave it nil and rely on ParentSpanID.
type SpanData struct {
	TraceID      string            `json:"traceId"`
	SpanID       string            `json:"spanId"`
	ParentSpanID string            `json:"parentSpanId,omitempty"`
	Name         string            `json:"name"`
	Start        time.Time         `json:"start"`
	End          *time.Time        `json:"end,omitempty"` // nil while open
	DurationMS   float64           `json:"durationMs,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Events       []EventData       `json:"events,omitempty"`
	Children     []*SpanData       `json:"children,omitempty"`
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// snapshot copies one span's data under the trace lock.
func (sp *Span) snapshot() SpanData {
	d := SpanData{
		TraceID: sp.traceID.String(),
		SpanID:  sp.id.String(),
		Name:    sp.name,
		Start:   sp.start,
		Attrs:   attrMap(sp.attrs),
	}
	if !sp.parent.IsZero() {
		d.ParentSpanID = sp.parent.String()
	}
	if !sp.end.IsZero() {
		end := sp.end
		d.End = &end
		d.DurationMS = float64(end.Sub(sp.start)) / float64(time.Millisecond)
	}
	for _, ev := range sp.events {
		d.Events = append(d.Events, EventData{Name: ev.Name, Time: ev.Time, Attrs: attrMap(ev.Attrs)})
	}
	return d
}

// flat snapshots every span of the trace in creation order.
func (r *traceRec) flat() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, len(r.spans))
	for i, sp := range r.spans {
		out[i] = sp.snapshot()
	}
	return out
}

// Flat returns every span recorded under key in creation order, or
// false if the trace is unknown (never started, or evicted). Safe to
// call while the trace is still being written; open spans have no End.
func (t *Tracer) Flat(key string) ([]SpanData, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	rec, ok := t.traces[key]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	return rec.flat(), true
}

// Tree returns the trace recorded under key as a nested span tree
// rooted at the first span. Spans whose parent is not in the trace
// (the root, or an inbound remote parent) hang off the root.
func (t *Tracer) Tree(key string) (*SpanData, bool) {
	flat, ok := t.Flat(key)
	if !ok || len(flat) == 0 {
		return nil, false
	}
	byID := make(map[string]*SpanData, len(flat))
	nodes := make([]*SpanData, len(flat))
	for i := range flat {
		nodes[i] = &flat[i]
		byID[flat[i].SpanID] = nodes[i]
	}
	root := nodes[0]
	for _, n := range nodes[1:] {
		parent := byID[n.ParentSpanID]
		if parent == nil {
			parent = root
		}
		parent.Children = append(parent.Children, n)
	}
	return root, true
}

// WriteJSONL writes the trace recorded under key as JSON Lines (one
// flat span object per line) — the offline-analysis form.
func (t *Tracer) WriteJSONL(key string, w io.Writer) error {
	flat, ok := t.Flat(key)
	if !ok {
		return fmt.Errorf("obs: no trace for %q", key)
	}
	var buf bytes.Buffer
	for i := range flat {
		line, err := json.Marshal(&flat[i])
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// exportJSONL streams a finished trace to the configured sink; one
// buffered write keeps concurrent finishes line-atomic.
func (t *Tracer) exportJSONL(rec *traceRec) {
	flat := rec.flat()
	var buf bytes.Buffer
	for i := range flat {
		line, err := json.Marshal(&flat[i])
		if err != nil {
			return
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	t.jsonlMu.Lock()
	defer t.jsonlMu.Unlock()
	_, _ = t.jsonl.Write(buf.Bytes())
}

// Len reports how many traces the store currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}
