// Package jobs is the asynchronous simulation job service: a bounded
// queue of submitted jobs (recording sweeps, reproduced experiments,
// crash-injection campaigns) executed by a fixed worker pool, with
// per-job cancellation and deadlines, and graceful drain for shutdown.
// A job runs once: the simulator is deterministic, so a failure would
// only repeat. cmd/plpserve exposes it as a JSON HTTP API; the queue
// bound is the service's load shedding — a full queue rejects at
// submit time (HTTP 429) instead of buffering without limit and
// falling over under a burst.
//
// Job-mode runs are cycle-identical to CLI runs: the only engine-side
// coupling is Config.Cancel, the cooperative stop hook, which gets the
// job's context as is; its unfired polls are proven not to perturb a
// single cycle (engine and harness equivalence tests).
package jobs

import (
	"errors"
	"fmt"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/trace"
)

// Kind selects what a job runs.
type Kind string

// The job kinds.
const (
	// KindSweep records a (benchmark x scheme) registry sweep — the
	// job-mode equivalent of `plpbench record`.
	KindSweep Kind = "sweep"
	// KindDistSweep records the same sweep sharded across the
	// registered fabric workers (internal/fabric). With no fabric
	// configured — or no workers registered — it degrades to KindSweep's
	// local pool, so submitting one is always safe; either way the
	// result is identical (the simulator is deterministic and the shard
	// merge is order-independent).
	KindDistSweep Kind = "distsweep"
	// KindExperiment reproduces one harness table/figure — the
	// job-mode equivalent of `plptables -exp`.
	KindExperiment Kind = "experiment"
	// KindCrash runs a crash-injection campaign — the job-mode
	// equivalent of `plpcrash run`.
	KindCrash Kind = "crash"
)

// Spec describes one job submission. The zero value is not valid: a
// Kind is required, everything else takes defaults matching the
// corresponding CLI tool.
type Spec struct {
	Kind Kind `json:"kind"`

	// Benches restricts the benchmark set (sweep/experiment; default
	// all 15).
	Benches []string `json:"benches,omitempty"`
	// Schemes restricts the scheme set (sweep; default the paper's
	// six evaluated schemes).
	Schemes []string `json:"schemes,omitempty"`
	// Instructions per benchmark run (0 = harness default).
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup streams this many instructions through the caches before
	// each run's measured region (engine Config.Warmup). With the
	// service's shared memo, the warm-up work is checkpointed once per
	// benchmark and resumed by every scheme.
	Warmup uint64 `json:"warmup,omitempty"`
	// FullMemory evaluates the "_full" configurations.
	FullMemory bool `json:"fullMemory,omitempty"`

	// Interval is the sweep telemetry window width in cycles (0 =
	// telemetry default); NoTelemetry drops the time series entirely.
	Interval    uint64 `json:"interval,omitempty"`
	NoTelemetry bool   `json:"noTelemetry,omitempty"`

	// Experiment selects a harness driver by ID (tableV, fig8..fig12,
	// wpq, mdc, llc, coalesce, ...) for KindExperiment.
	Experiment string `json:"experiment,omitempty"`

	// Crash parameterizes a KindCrash campaign (nil = campaign
	// defaults).
	Crash *crash.CampaignConfig `json:"crash,omitempty"`

	// TimeoutSec bounds the job's runtime; past it the job is
	// cancelled and reported failed ("deadline exceeded"). 0 takes the
	// service default.
	TimeoutSec int `json:"timeoutSec,omitempty"`
}

// ErrInvalidSpec tags validation failures so the HTTP layer can map
// them to 400 instead of 500.
var ErrInvalidSpec = errors.New("jobs: invalid spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Validate rejects specs the service could not run. It is the
// submit-side gate: everything it accepts executes without panicking.
func (s Spec) Validate() error {
	if s.TimeoutSec < 0 {
		return invalidf("timeoutSec must be >= 0, got %d", s.TimeoutSec)
	}
	if err := (engine.Config{Instructions: s.Instructions, Warmup: s.Warmup}).Validate(); err != nil {
		return invalidf("%v", err)
	}
	for _, b := range s.Benches {
		if _, ok := trace.ProfileByName(b); !ok {
			return invalidf("unknown benchmark %q", b)
		}
	}
	for _, sch := range s.Schemes {
		if err := (engine.Config{Scheme: engine.Scheme(sch)}).Validate(); err != nil {
			return invalidf("%v", err)
		}
	}
	switch s.Kind {
	case KindSweep, KindDistSweep:
		if s.Experiment != "" {
			return invalidf("experiment set on a sweep job")
		}
	case KindExperiment:
		if s.Experiment == "" {
			return invalidf("experiment job needs an experiment ID (one of %v)", harness.Order())
		}
		if _, ok := harness.All()[s.Experiment]; !ok {
			return invalidf("unknown experiment %q (known: %v)", s.Experiment, harness.Order())
		}
	case KindCrash:
		if s.Crash != nil {
			if s.Crash.Bench != "" {
				if _, ok := trace.ProfileByName(s.Crash.Bench); !ok {
					return invalidf("unknown crash benchmark %q", s.Crash.Bench)
				}
			}
			for _, sch := range s.Crash.Schemes {
				if err := (engine.Config{Scheme: sch}).Validate(); err != nil {
					return invalidf("%v", err)
				}
			}
			if s.Crash.Systematic < 0 || s.Crash.Random < 0 {
				return invalidf("crash point counts must be >= 0")
			}
		}
	default:
		return invalidf("unknown kind %q (known: %s, %s, %s, %s)",
			s.Kind, KindSweep, KindDistSweep, KindExperiment, KindCrash)
	}
	return nil
}

// engineSchemes converts the spec's scheme names (already validated).
func (s Spec) engineSchemes() []engine.Scheme {
	out := make([]engine.Scheme, 0, len(s.Schemes))
	for _, sch := range s.Schemes {
		out = append(out, engine.Scheme(sch))
	}
	return out
}

// plannedRuns returns how many engine runs the job will schedule, for
// progress reporting (0 = unknown).
func (s Spec) plannedRuns() int {
	if s.Kind != KindSweep && s.Kind != KindDistSweep {
		return 0
	}
	benches := len(s.Benches)
	if benches == 0 {
		benches = len(trace.Profiles())
	}
	schemes := len(s.Schemes)
	if schemes == 0 {
		schemes = len(engine.CoreSchemes())
	}
	return benches * schemes
}
