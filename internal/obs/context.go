package obs

import "context"

type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp, the in-process propagation
// seam between the job service and the harness runs a job schedules. A nil span returns ctx unchanged, so the untraced path
// never even allocates the context wrapper.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil — and a nil
// span's methods all no-op, so callers use the result unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
