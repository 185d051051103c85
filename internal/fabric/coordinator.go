package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"plp/internal/metrics"
	"plp/internal/obs"
	"plp/internal/registry"
)

// CoordinatorConfig parameterizes a Coordinator. Zero fields take
// defaults.
type CoordinatorConfig struct {
	// Heartbeat is the cadence handed to workers at registration
	// (default 1s); WorkerTTL is how long a silent worker stays in the
	// table before eviction (default 5×Heartbeat).
	Heartbeat time.Duration
	WorkerTTL time.Duration
	// StealAfter is the lease age past which an idle worker may
	// re-dispatch another worker's outstanding unit (work stealing from
	// stragglers; the first result to commit wins). Default 30s.
	StealAfter time.Duration
	// Local is the coordinator's own execution stack, used to finish
	// remaining units in-process if every worker dies mid-sweep.
	Local Stack
	// Client dispatches units and version checks (nil = a client
	// without timeouts; per-request contexts bound everything).
	Client *http.Client
	// Metrics, when non-nil, receives the plp_fabric_* instruments.
	Metrics *metrics.Registry
	// Log, when non-nil, receives fabric lifecycle records.
	Log *slog.Logger
	// Version is the coordinator's compat fingerprint (zero =
	// CurrentVersion); workers advertising a different scheme set are
	// rejected at registration.
	Version VersionInfo
	// Now is the clock seam (tests); nil means time.Now.
	Now func() time.Time
}

func (c *CoordinatorConfig) fill() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 5 * c.Heartbeat
	}
	if c.StealAfter <= 0 {
		c.StealAfter = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if len(c.Version.Schemes) == 0 {
		c.Version = CurrentVersion()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// workerState is one registered worker in the coordinator's table.
type workerState struct {
	id       string
	addr     string
	lastSeen time.Time
	busy     int // units currently dispatched to this worker
	gone     bool
}

// Coordinator owns the worker table and runs distributed sweeps.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[string]*workerState // by worker ID
	seq     int
	sweeps  int

	registrations  *metrics.Counter
	rejections     *metrics.Counter
	heartbeats     *metrics.Counter
	evictions      *metrics.Counter
	unitsPlanned   *metrics.Counter
	dispatches     *metrics.Counter
	commits        *metrics.Counter
	requeues       *metrics.Counter
	steals         *metrics.Counter
	duplicates     *metrics.Counter
	localFallbacks *metrics.Counter
}

// NewCoordinator builds a coordinator and, when cfg.Metrics is set,
// binds its plp_fabric_* instruments.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	c := &Coordinator{cfg: cfg, workers: make(map[string]*workerState)}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New() // private: instruments always exist
	}
	reg.GaugeFunc("plp_fabric_workers",
		"Live registered fabric workers.",
		func() float64 { return float64(c.LiveWorkers()) })
	c.registrations = reg.Counter("plp_fabric_registrations_total",
		"Worker registrations accepted.")
	c.rejections = reg.Counter("plp_fabric_registrations_rejected_total",
		"Worker registrations rejected (unreachable or incompatible).")
	c.heartbeats = reg.Counter("plp_fabric_heartbeats_total",
		"Worker heartbeats received.")
	c.evictions = reg.Counter("plp_fabric_workers_evicted_total",
		"Workers evicted (missed heartbeats or broken dispatch).")
	c.unitsPlanned = reg.Counter("plp_fabric_units_total",
		"Sweep work units planned across all fabric sweeps.")
	c.dispatches = reg.Counter("plp_fabric_dispatches_total",
		"Unit dispatches to workers (re-dispatches included).")
	c.commits = reg.Counter("plp_fabric_units_committed_total",
		"Unit results committed (at most once per unit).")
	c.requeues = reg.Counter("plp_fabric_units_requeued_total",
		"Units re-queued after a dispatch failure or worker death.")
	c.steals = reg.Counter("plp_fabric_steals_total",
		"Units re-dispatched from stragglers by idle workers.")
	c.duplicates = reg.Counter("plp_fabric_duplicates_discarded_total",
		"Late duplicate unit results discarded by at-most-once commit.")
	c.localFallbacks = reg.Counter("plp_fabric_local_units_total",
		"Units the coordinator finished on its local stack after total worker loss.")
	return c
}

// Mount registers the coordinator-side protocol handlers on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathRegister, c.handleRegister)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET "+PathState, c.handleState)
}

// handleRegister admits a worker: fetch its /version as the
// compatibility (and reachability) check, then add it to the table. A
// re-registration from an address already in the table replaces the
// old entry (the worker restarted).
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Addr == "" {
		c.rejections.Inc()
		httpError(w, http.StatusBadRequest, "bad register request: need {\"addr\":\"host:port\"}")
		return
	}
	v, err := c.fetchVersion(r.Context(), req.Addr)
	if err != nil {
		c.rejections.Inc()
		httpError(w, http.StatusBadGateway, "worker %s version check failed: %v", req.Addr, err)
		return
	}
	if ok, reason := c.cfg.Version.CompatibleWith(v); !ok {
		c.rejections.Inc()
		if c.cfg.Log != nil {
			c.cfg.Log.Warn("fabric-register-rejected", "addr", req.Addr, "reason", reason)
		}
		httpError(w, http.StatusConflict, "worker %s incompatible: %s", req.Addr, reason)
		return
	}

	c.mu.Lock()
	for id, ws := range c.workers {
		if ws.addr == req.Addr {
			delete(c.workers, id) // restarted worker re-joins under a new ID
		}
	}
	c.seq++
	ws := &workerState{
		id:       fmt.Sprintf("w%03d", c.seq),
		addr:     req.Addr,
		lastSeen: c.cfg.Now(),
	}
	c.workers[ws.id] = ws
	c.mu.Unlock()

	c.registrations.Inc()
	if c.cfg.Log != nil {
		c.cfg.Log.Info("fabric-worker-joined", "worker", ws.id, "addr", ws.addr,
			"go", v.GoVersion, "module", v.Module)
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:        ws.id,
		HeartbeatMillis: int(c.cfg.Heartbeat / time.Millisecond),
	})
}

func (c *Coordinator) fetchVersion(ctx context.Context, addr string) (VersionInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+PathVersion, nil)
	if err != nil {
		return VersionInfo{}, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return VersionInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return VersionInfo{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return VersionInfo{}, err
	}
	return v, nil
}

// handleHeartbeat refreshes a worker's liveness. 410 tells an evicted
// (or unknown) worker to re-register.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	c.mu.Lock()
	ws, ok := c.workers[req.WorkerID]
	if ok {
		ws.lastSeen = c.cfg.Now()
	}
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusGone, "unknown worker %s: re-register", req.WorkerID)
		return
	}
	c.heartbeats.Inc()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleState serves the debug/test snapshot.
func (c *Coordinator) handleState(w http.ResponseWriter, _ *http.Request) {
	c.expire()
	c.mu.Lock()
	st := State{Sweeps: c.sweeps, Workers: []WorkerInfo{}}
	for _, ws := range c.workers {
		st.Workers = append(st.Workers, WorkerInfo{
			ID: ws.id, Addr: ws.addr, Busy: ws.busy,
			LastSeen: ws.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	writeJSON(w, http.StatusOK, st)
}

// expire evicts workers whose last heartbeat is older than WorkerTTL.
func (c *Coordinator) expire() {
	cutoff := c.cfg.Now().Add(-c.cfg.WorkerTTL)
	c.mu.Lock()
	var evicted []string
	for id, ws := range c.workers {
		if ws.lastSeen.Before(cutoff) {
			ws.gone = true
			delete(c.workers, id)
			evicted = append(evicted, id)
		}
	}
	c.mu.Unlock()
	for _, id := range evicted {
		c.evictions.Inc()
		if c.cfg.Log != nil {
			c.cfg.Log.Warn("fabric-worker-expired", "worker", id, "ttl", c.cfg.WorkerTTL.String())
		}
	}
}

// evict removes a worker after a broken dispatch (connection refused,
// transport error). A live worker that was evicted spuriously gets 410
// on its next heartbeat and re-registers.
func (c *Coordinator) evict(id, reason string) {
	c.mu.Lock()
	ws, ok := c.workers[id]
	if ok {
		ws.gone = true
		delete(c.workers, id)
	}
	c.mu.Unlock()
	if ok {
		c.evictions.Inc()
		if c.cfg.Log != nil {
			c.cfg.Log.Warn("fabric-worker-evicted", "worker", id, "reason", reason)
		}
	}
}

// LiveWorkers returns the number of registered, non-expired workers —
// the job service's signal for whether a distributed sweep has a
// fabric to run on or should fall back to the local pool.
func (c *Coordinator) LiveWorkers() int {
	c.expire()
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// live snapshots the current worker set.
func (c *Coordinator) live() []*workerState {
	c.expire()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*workerState, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// lease tracks one unit's current dispatch.
type lease struct {
	worker string
	since  time.Time
	steals int
}

// dispatchState is one sweep's shared scheduling state.
type dispatchState struct {
	c     *Coordinator
	units []Unit
	span  *obs.Span

	mu        sync.Mutex
	pending   []int // unit indices awaiting (re-)dispatch, FIFO
	leases    map[int]*lease
	shards    map[int]*registry.File
	remaining int
	fatal     error
	runners   map[string]bool // worker ID -> runner goroutine active

	// onCommit streams each committed unit up to the caller (job
	// progress); called outside d.mu.
	onCommit func(u Unit)
}

func (d *dispatchState) finished() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remaining == 0 || d.fatal != nil
}

func (d *dispatchState) fail(err error) {
	d.mu.Lock()
	if d.fatal == nil {
		d.fatal = err
	}
	d.mu.Unlock()
}

// next picks work for a worker: the oldest pending unit, else — once
// the queue is empty — a straggler's unit whose lease has outlived
// StealAfter. ok=false means nothing to do right now.
func (d *dispatchState) next(workerID string, now time.Time) (int, bool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remaining == 0 || d.fatal != nil {
		return 0, false, false
	}
	if len(d.pending) > 0 {
		idx := d.pending[0]
		d.pending = d.pending[1:]
		d.leases[idx] = &lease{worker: workerID, since: now}
		return idx, true, false
	}
	// Work stealing: pick the longest-outstanding lease held by another
	// worker past the steal age (deterministic choice: oldest, ties by
	// lowest unit index).
	best, bestIdx := (*lease)(nil), -1
	for idx, l := range d.leases {
		if _, done := d.shards[idx]; done || l.worker == workerID {
			continue
		}
		if now.Sub(l.since) < d.c.cfg.StealAfter {
			continue
		}
		if best == nil || l.since.Before(best.since) || (l.since.Equal(best.since) && idx < bestIdx) {
			best, bestIdx = l, idx
		}
	}
	if best == nil {
		return 0, false, false
	}
	d.leases[bestIdx] = &lease{worker: workerID, since: now, steals: best.steals + 1}
	return bestIdx, true, true
}

// requeue returns a unit to the pending queue after a failed dispatch,
// unless it was committed meanwhile (stolen and finished elsewhere).
func (d *dispatchState) requeue(idx int, workerID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, done := d.shards[idx]; done {
		return
	}
	if l, ok := d.leases[idx]; ok && l.worker == workerID {
		delete(d.leases, idx)
	}
	for _, p := range d.pending {
		if p == idx {
			return // already pending (requeued by another path)
		}
	}
	d.pending = append(d.pending, idx)
	d.c.requeues.Inc()
}

// commit stores a unit's shard at most once. The first result wins;
// late duplicates (a stolen unit's original worker, a resurrected
// worker) are discarded — deterministically harmless, because the
// simulator is deterministic and Identical ignores wall clock.
func (d *dispatchState) commit(idx int, shard *registry.File, workerID string) {
	d.mu.Lock()
	if _, dup := d.shards[idx]; dup {
		d.mu.Unlock()
		d.c.duplicates.Inc()
		d.span.Event("fabric-duplicate-discarded",
			obs.Int("unit", idx), obs.String("worker", workerID))
		return
	}
	d.shards[idx] = shard
	if l, ok := d.leases[idx]; ok && l.worker == workerID {
		delete(d.leases, idx)
	}
	// Drop the unit from pending if a failure path re-queued it while
	// this (stolen) result was in flight.
	for i, p := range d.pending {
		if p == idx {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			break
		}
	}
	d.remaining--
	u := d.units[idx]
	cb := d.onCommit
	d.mu.Unlock()
	d.c.commits.Inc()
	if cb != nil {
		cb(u)
	}
}

// ensureRunner starts a dispatch goroutine for a worker that does not
// have one; wg tracks it.
func (d *dispatchState) ensureRunner(ctx context.Context, ws *workerState, wg *sync.WaitGroup) {
	d.mu.Lock()
	if d.runners[ws.id] {
		d.mu.Unlock()
		return
	}
	d.runners[ws.id] = true
	d.mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			d.mu.Lock()
			delete(d.runners, ws.id)
			d.mu.Unlock()
		}()
		d.runner(ctx, ws)
	}()
}

func (d *dispatchState) activeRunners() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.runners)
}

// runner is one worker's dispatch loop: lease a unit, POST it, commit
// the shard. A transport failure re-queues the unit, evicts the worker
// and ends the loop (the worker re-registers if it is actually alive);
// a permanent unit failure (422) fails the whole sweep.
func (d *dispatchState) runner(ctx context.Context, ws *workerState) {
	c := d.c
	for {
		if ctx.Err() != nil || d.finished() {
			return
		}
		if !c.alive(ws.id) {
			return
		}
		idx, ok, stolen := d.next(ws.id, c.cfg.Now())
		if !ok {
			select {
			case <-ctx.Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
			continue
		}
		if stolen {
			c.steals.Inc()
			d.span.Event("fabric-steal", obs.Int("unit", idx), obs.String("worker", ws.id))
		}
		c.markBusy(ws.id, +1)
		shard, err := c.dispatchUnit(ctx, ws, d.units[idx], d.span)
		c.markBusy(ws.id, -1)
		if err != nil {
			var ue *UnitError
			if errors.As(err, &ue) || errors.Is(err, errUnitPermanent) {
				d.fail(err)
				return
			}
			if ctx.Err() != nil {
				d.requeue(idx, ws.id)
				return
			}
			d.requeue(idx, ws.id)
			c.evict(ws.id, err.Error())
			return
		}
		d.commit(idx, shard, ws.id)
	}
}

// errUnitPermanent tags a 422 from a worker: the unit is
// deterministically unrunnable, so re-queueing would loop forever.
var errUnitPermanent = errors.New("fabric: permanent unit failure")

// dispatchUnit POSTs one unit to a worker and parses the shard. The
// per-unit child span records worker, outcome, and wall time.
func (c *Coordinator) dispatchUnit(ctx context.Context, ws *workerState, u Unit, parent *obs.Span) (*registry.File, error) {
	usp := parent.Child("fabric-unit",
		obs.Int("unit", u.ID), obs.String("scheme", u.Scheme),
		obs.String("bench", u.Bench), obs.String("worker", ws.id))
	defer usp.End()
	if tp := usp.Context().Traceparent(); tp != "" {
		u.Traceparent = tp
	}
	c.dispatches.Inc()

	body, _ := json.Marshal(u)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+ws.addr+PathRun, bytes.NewReader(body))
	if err != nil {
		usp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		usp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("fabric: worker %s unit %d: status %d: %s",
			ws.id, u.ID, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusUnprocessableEntity {
			err = fmt.Errorf("%w: %v", errUnitPermanent, err)
		}
		usp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	var ur UnitResult
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		usp.SetAttr(obs.String("error", err.Error()))
		return nil, fmt.Errorf("fabric: worker %s unit %d: bad shard: %w", ws.id, u.ID, err)
	}
	if ur.Shard == nil || len(ur.Shard.Runs) != 1 {
		err := fmt.Errorf("fabric: worker %s unit %d: shard missing or not a single run", ws.id, u.ID)
		usp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	usp.SetAttr(obs.Uint64("cycles", ur.Shard.Runs[0].Cycles), obs.Bool("committed", true))
	return ur.Shard, nil
}

func (c *Coordinator) alive(id string) bool {
	c.expire()
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.workers[id]
	return ok
}

func (c *Coordinator) markBusy(id string, delta int) {
	c.mu.Lock()
	if ws, ok := c.workers[id]; ok {
		ws.busy += delta
	}
	c.mu.Unlock()
}

// RunSweep shards sw across the registered workers and merges the
// shards into one registry file identical to a single-process run
// (modulo wall-clock fields). onCommit, when non-nil, is called once
// per committed unit as results stream back (job progress). RunSweep
// blocks until the sweep completes, ctx fires, or a permanent unit
// failure fails it.
func (c *Coordinator) RunSweep(ctx context.Context, sw Sweep, span *obs.Span, onCommit func(Unit)) (*registry.File, error) {
	units, err := sw.units()
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("fabric: sweep has no units")
	}
	c.mu.Lock()
	c.sweeps++
	c.mu.Unlock()
	for range units {
		c.unitsPlanned.Inc()
	}
	span.Event("fabric-sweep-start",
		obs.Int("units", len(units)), obs.Int("workers", c.LiveWorkers()))
	if c.cfg.Log != nil {
		c.cfg.Log.Info("fabric-sweep-start", "units", len(units), "workers", c.LiveWorkers())
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &dispatchState{
		c:         c,
		units:     units,
		span:      span,
		pending:   make([]int, len(units)),
		leases:    make(map[int]*lease),
		shards:    make(map[int]*registry.File, len(units)),
		remaining: len(units),
		runners:   make(map[string]bool),
		onCommit:  onCommit,
	}
	for i := range units {
		d.pending[i] = i
	}

	var wg sync.WaitGroup
	for !d.finished() {
		if err := ctx.Err(); err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		for _, ws := range c.live() {
			d.ensureRunner(dctx, ws, &wg)
		}
		if d.activeRunners() == 0 {
			// Total worker loss (or none ever joined mid-sweep): finish
			// one pending unit locally, then re-check — a worker that
			// re-registers meanwhile picks the rest back up.
			if idx, ok, _ := d.next("(local)", c.cfg.Now()); ok {
				c.localFallbacks.Inc()
				span.Event("fabric-local-fallback", obs.Int("unit", idx))
				if c.cfg.Log != nil {
					c.cfg.Log.Warn("fabric-local-fallback", "unit", idx,
						"scheme", units[idx].Scheme, "bench", units[idx].Bench)
				}
				usp := span.Child("fabric-unit",
					obs.Int("unit", idx), obs.String("scheme", units[idx].Scheme),
					obs.String("bench", units[idx].Bench), obs.String("worker", "(local)"))
				shard, err := ExecuteUnit(ctx, units[idx], c.cfg.Local, usp)
				usp.End()
				if err != nil {
					wg.Wait()
					return nil, err
				}
				d.commit(idx, shard, "(local)")
				continue
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(25 * time.Millisecond):
		}
	}
	cancel()
	wg.Wait()
	d.mu.Lock()
	fatal := d.fatal
	shards := make([]*registry.File, 0, len(units))
	for i := range units {
		if s, ok := d.shards[i]; ok {
			shards = append(shards, s)
		}
	}
	d.mu.Unlock()
	if fatal != nil {
		return nil, fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	template := registry.New(sw.Tag, sw.Instructions, sw.FullMemory)
	template.Warmup = sw.Warmup
	merged, err := registry.MergeShards(template, shards)
	if err != nil {
		return nil, fmt.Errorf("fabric: merge: %w", err)
	}
	span.Event("fabric-sweep-merged", obs.Int("shards", len(shards)))
	if c.cfg.Log != nil {
		c.cfg.Log.Info("fabric-sweep-done", "units", len(units), "shards", len(shards))
	}
	return merged, nil
}
