// Package fabric is the distributed sweep fabric: a coordinator that
// shards a recording sweep by (scheme × benchmark × seed) into work
// units, dispatches them over a JSON HTTP protocol to registered
// plpserve workers, streams per-unit shard results back, and merges
// them into one registry.File that is byte-identical (modulo the
// wall-clock fields, which are machine-dependent by nature) to a
// single-process run — regardless of shard order, worker count, or
// mid-sweep worker deaths.
//
// The control plane is deliberately small (modeled on the
// driver→loader→worker split of the vhive invitro experiment driver):
//
//	worker  → coordinator   POST /fabric/register   {addr}
//	worker  → coordinator   POST /fabric/heartbeat  {workerId}
//	coordinator → worker    GET  /version           (compat check)
//	coordinator → worker    POST /fabric/run        Unit → UnitResult
//	anyone  → coordinator   GET  /fabric/state      (debug/tests)
//
// Work distribution is lease-based: the coordinator leases one unit at
// a time to each live worker; a unit whose worker dies (missed
// heartbeats, broken dispatch connection) is re-queued, and once the
// pending queue drains, idle workers steal units from stragglers whose
// lease has outlived the steal age. Results commit at most once — the
// first shard for a unit wins and any late duplicate from a
// resurrected or out-raced worker is discarded deterministically
// (simulated results are bit-identical either way; only the discarded
// shard's wall clock is lost). If every worker dies mid-sweep, the
// coordinator finishes the remaining units on its own local stack, so
// a submitted sweep always completes.
package fabric

import (
	"sort"

	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/registry"
	"plp/internal/trace"
)

// Protocol paths. The coordinator side mounts under the job API mux of
// a plpserve started with -coordinator; the worker side under one
// started with -join.
const (
	PathRegister  = "/fabric/register"
	PathHeartbeat = "/fabric/heartbeat"
	PathState     = "/fabric/state"
	PathRun       = "/fabric/run"
	PathVersion   = "/version"
)

// Unit is one shard of a sweep: a single (scheme, benchmark, seed)
// simulation plus the sweep-wide parameters every shard must agree on.
// Values are the raw (pre-default) spec values so the shard files a
// worker returns merge byte-compatibly with a local run of the same
// spec.
type Unit struct {
	// ID is the unit's dense index in the sweep's deterministic
	// bench-major × scheme-minor order; the merge reassembles shards in
	// this order no matter when they commit.
	ID     int    `json:"id"`
	Scheme string `json:"scheme"`
	Bench  string `json:"bench"`
	// Seed pins the benchmark's trace seed. The worker cross-checks it
	// against its own profile table: a worker built with different
	// profiles would silently produce a different simulation, so a
	// mismatch fails the unit loudly instead.
	Seed uint64 `json:"seed"`

	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
	FullMemory   bool   `json:"fullMemory,omitempty"`
	Interval     uint64 `json:"interval,omitempty"`
	NoTelemetry  bool   `json:"noTelemetry,omitempty"`

	// Traceparent carries the dispatching unit span's W3C context so a
	// worker with a tracer records its shard run under the job's
	// distributed trace.
	Traceparent string `json:"traceparent,omitempty"`
}

// UnitResult is a worker's response to POST /fabric/run: the shard —
// a one-run registry file carrying the sweep-compat header fields
// (instructions, warm-up, memory mode) the merge validates.
type UnitResult struct {
	UnitID   int            `json:"unitId"`
	WorkerID string         `json:"workerId,omitempty"`
	Shard    *registry.File `json:"shard"`
}

// RegisterRequest announces a worker to the coordinator. Addr is the
// worker's dial-back address (host:port); the coordinator immediately
// fetches Addr's /version as the registration compatibility check, so
// an unreachable or incompatible worker is rejected synchronously.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// RegisterResponse assigns the worker its identity and the heartbeat
// cadence the coordinator expects.
type RegisterResponse struct {
	WorkerID        string `json:"workerId"`
	HeartbeatMillis int    `json:"heartbeatMillis"`
}

// HeartbeatRequest keeps a registered worker alive. An unknown worker
// ID draws 410 Gone — the worker's cue to re-register (it was evicted
// for missed heartbeats, or the coordinator restarted).
type HeartbeatRequest struct {
	WorkerID string `json:"workerId"`
}

// WorkerInfo is one worker's row in the coordinator's state view.
type WorkerInfo struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	Busy     int    `json:"busy"`
	LastSeen string `json:"lastSeen"`
}

// State is the coordinator's debug/test snapshot (GET /fabric/state).
type State struct {
	Workers []WorkerInfo `json:"workers"`
	// Sweeps counts fabric sweeps started over the coordinator's life.
	Sweeps int `json:"sweeps"`
}

// Sweep parameterizes one distributed recording sweep. Field meanings
// match jobs.Spec / harness.RecordOptions; zero values take the same
// defaults on every worker (the harness fills them), so the merged
// file is identical to a local run of the same spec.
type Sweep struct {
	Tag          string
	Benches      []string
	Schemes      []string
	Instructions uint64
	Warmup       uint64
	FullMemory   bool
	Interval     uint64
	NoTelemetry  bool
}

// units expands the sweep into its deterministic shard list:
// bench-major, scheme-minor — the same order a local Record uses.
func (sw Sweep) units() ([]Unit, error) {
	benches := sw.Benches
	if len(benches) == 0 {
		for _, p := range trace.Profiles() {
			benches = append(benches, p.Name)
		}
	}
	schemes := sw.Schemes
	if len(schemes) == 0 {
		for _, s := range engine.CoreSchemes() { // the six evaluated, Table IV order
			schemes = append(schemes, string(s))
		}
	}
	units := make([]Unit, 0, len(benches)*len(schemes))
	for _, b := range benches {
		p, ok := trace.ProfileByName(b)
		if !ok {
			return nil, &UnitError{Unit: Unit{Bench: b}, Msg: "unknown benchmark"}
		}
		for _, s := range schemes {
			units = append(units, Unit{
				ID:           len(units),
				Scheme:       s,
				Bench:        b,
				Seed:         p.Seed,
				Instructions: sw.Instructions,
				Warmup:       sw.Warmup,
				FullMemory:   sw.FullMemory,
				Interval:     sw.Interval,
				NoTelemetry:  sw.NoTelemetry,
			})
		}
	}
	return units, nil
}

// UnitError is a permanent (deterministic) unit failure: re-running
// the unit elsewhere would fail identically, so the coordinator fails
// the sweep instead of re-queueing.
type UnitError struct {
	Unit Unit
	Msg  string
}

func (e *UnitError) Error() string {
	return "fabric: unit " + e.Unit.Scheme + "/" + e.Unit.Bench + ": " + e.Msg
}

// Stack bundles the local memoization stack threaded into harness runs
// — a worker's execution environment, and the coordinator's own when
// it falls back to finishing units locally.
type Stack struct {
	Memo  *harness.Memo
	Probe *harness.PoolProbe
	// Parallel caps the fan-out inside one unit (a unit is a single
	// run, so this mostly bounds incidental parallelism; 0 = GOMAXPROCS).
	Parallel int
}

// schemesEqual compares two supported-scheme sets order-insensitively.
func schemesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
