package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// PoolProbe observes a fan-out pool's occupancy. Every counter is
// cumulative across the Fan/FanCtx calls it is threaded through (one
// runner issues several), and all methods are safe on a nil receiver,
// so instrumented and uninstrumented call sites share one code path.
// Schedulers and tests use it to assert liveness properties — e.g. no
// worker starvation: after a sweep, Queued() == 0, Completed() == the
// total item count, and MaxRunning() reached the pool width.
type PoolProbe struct {
	queued     atomic.Int64
	running    atomic.Int64
	completed  atomic.Int64
	maxRunning atomic.Int64
	workers    atomic.Int64
}

// Queued returns the items dispatched to the pool but not yet started
// (the queue depth).
func (p *PoolProbe) Queued() int {
	if p == nil {
		return 0
	}
	return int(p.queued.Load())
}

// Running returns the items currently executing.
func (p *PoolProbe) Running() int {
	if p == nil {
		return 0
	}
	return int(p.running.Load())
}

// Completed returns the items finished so far.
func (p *PoolProbe) Completed() int {
	if p == nil {
		return 0
	}
	return int(p.completed.Load())
}

// MaxRunning returns the high-water mark of concurrently executing
// items.
func (p *PoolProbe) MaxRunning() int {
	if p == nil {
		return 0
	}
	return int(p.maxRunning.Load())
}

// Workers returns the widest pool the probe has been threaded through.
func (p *PoolProbe) Workers() int {
	if p == nil {
		return 0
	}
	return int(p.workers.Load())
}

// enqueue records n items entering the pool's queue.
func (p *PoolProbe) enqueue(n, workers int) {
	if p == nil {
		return
	}
	p.queued.Add(int64(n))
	for {
		cur := p.workers.Load()
		if int64(workers) <= cur || p.workers.CompareAndSwap(cur, int64(workers)) {
			return
		}
	}
}

// start records one item moving from the queue into execution.
func (p *PoolProbe) start() {
	if p == nil {
		return
	}
	p.queued.Add(-1)
	r := p.running.Add(1)
	for {
		cur := p.maxRunning.Load()
		if r <= cur || p.maxRunning.CompareAndSwap(cur, r) {
			return
		}
	}
}

// done records one item finishing execution.
func (p *PoolProbe) done() {
	if p == nil {
		return
	}
	p.running.Add(-1)
	p.completed.Add(1)
}

// drain records items abandoned in the queue (cancelled dispatch).
func (p *PoolProbe) drain(n int) {
	if p != nil && n > 0 {
		p.queued.Add(int64(-n))
	}
}

// Fan runs fn(i) for every i in [0, n), distributed over a worker
// pool. workers <= 0 selects runtime.NumCPU(); a pool of one (or a
// single item) degenerates to a sequential loop. Callers communicate
// results through the index — writing into pre-sized slices keeps
// assembly deterministic regardless of completion order. Fan returns
// when every invocation has finished.
//
// This is the harness's sweep fan-out, exported so other drivers (the
// crash-injection campaign) share one pool discipline.
func Fan(n, workers int, fn func(i int)) {
	FanCtxProbe(context.TODO(), n, workers, nil, fn)
}

// FanProbe is Fan with an occupancy probe (nil = uninstrumented).
func FanProbe(n, workers int, probe *PoolProbe, fn func(i int)) {
	FanCtxProbe(context.TODO(), n, workers, probe, fn)
}

// FanCtx is Fan with cooperative cancellation: once ctx is done no new
// item is dispatched; invocations already running finish normally (the
// engine additionally observes the context mid-run when the caller
// threads it into Config.Cancel, as RecordContext does). It returns
// nil when all n invocations ran, ctx.Err() otherwise. A background
// (never-cancelled) context makes FanCtx behave exactly like Fan.
func FanCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return FanCtxProbe(ctx, n, workers, nil, fn)
}

// FanCtxProbe is FanCtx with an occupancy probe (nil = uninstrumented),
// and the one pool body behind Fan, FanProbe and FanCtx. Items never
// dispatched because ctx fired are drained from the probe's queue
// count, so Queued() returns to zero either way.
func FanCtxProbe(ctx context.Context, n, workers int, probe *PoolProbe, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	probe.enqueue(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				probe.drain(n - i)
				return err
			}
			probe.start()
			fn(i)
			probe.done()
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				probe.start()
				fn(i)
				probe.done()
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	probe.drain(n - dispatched)
	return ctx.Err()
}
