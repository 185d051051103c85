// Package registry persists simulation results as versioned JSON
// registry files (BENCH_<tag>.json) and compares them: the repo's
// performance-regression gate. A registry file records, per
// (scheme, benchmark) run, the engine.Result headline numbers, the
// cycle attribution, latency-histogram digests, and (optionally) the
// telemetry time series, together with an environment/config
// fingerprint so a comparison can tell "the model changed" apart
// from "the machine changed".
//
// The simulator is deterministic, so on an unchanged tree a fresh
// recording matches the committed baseline exactly; the comparison's
// noise threshold exists for intentional-but-small model adjustments
// and for future nondeterministic backends.
package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"plp/internal/engine"
	"plp/internal/stats"
	"plp/internal/telemetry"
)

// Version is the registry file schema version. Readers reject files
// with a newer major version than they understand.
const Version = 1

// Fingerprint identifies the environment a registry file was
// recorded in. Mismatches downgrade a failed comparison to a warning
// candidate (cross-machine numbers are still expected to match for
// this deterministic simulator, but the context is worth surfacing).
type Fingerprint struct {
	GoVersion string `json:"go"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// CurrentFingerprint returns the running environment's fingerprint.
func CurrentFingerprint() Fingerprint {
	return Fingerprint{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
	}
}

// Run is one (scheme, benchmark) simulation in serializable form.
type Run struct {
	Scheme       string `json:"scheme"`
	Bench        string `json:"bench"`
	Instructions uint64 `json:"instructions"`

	Cycles   uint64  `json:"cycles"`
	IPC      float64 `json:"ipc"`
	Persists uint64  `json:"persists"`
	PPKI     float64 `json:"ppki"`
	Epochs   uint64  `json:"epochs,omitempty"`

	BMTNodeUpdates   uint64 `json:"bmtNodeUpdates"`
	BMTUpdatesNoCoal uint64 `json:"bmtUpdatesNoCoal,omitempty"`
	Writebacks       uint64 `json:"writebacks,omitempty"`

	WPQStalls  uint64 `json:"wpqStalls"`
	SlotStalls uint64 `json:"slotStalls,omitempty"`

	CtrHitRate float64 `json:"ctrHitRate"`
	MACHitRate float64 `json:"macHitRate"`
	BMTHitRate float64 `json:"bmtHitRate"`

	NVMReads  uint64 `json:"nvmReads"`
	NVMWrites uint64 `json:"nvmWrites"`

	// Simulator throughput: how long the run took on the recording
	// machine and the persist rate that implies. Wall-clock numbers are
	// machine- and load-dependent — comparisons surface them
	// informationally and never gate on them (the cycle counts above
	// are the deterministic regression signal).
	WallNS       uint64  `json:"wallNS,omitempty"`
	StoresPerSec float64 `json:"storesPerSec,omitempty"`

	// Attribution maps component name to core cycles; encoding/json
	// emits map keys sorted, keeping the file byte-deterministic.
	Attribution map[string]uint64 `json:"attribution"`
	AttribDrift float64           `json:"attribDrift"`

	PersistLatency stats.Summary `json:"persistLatency"`
	EpochLatency   stats.Summary `json:"epochLatency"`
	WPQWaitLatency stats.Summary `json:"wpqWaitLatency"`

	Telemetry *telemetry.Series `json:"telemetry,omitempty"`
}

// Key returns the run's registry identity, "scheme/bench".
func (r Run) Key() string { return r.Scheme + "/" + r.Bench }

// SetTiming records the run's wall-clock duration and derives the
// persist throughput (persists per wall second of simulation).
func (r *Run) SetTiming(wall time.Duration) {
	r.WallNS = uint64(wall.Nanoseconds())
	if s := wall.Seconds(); s > 0 {
		r.StoresPerSec = float64(r.Persists) / s
	}
}

// FromResult converts an engine result (plus an optional telemetry
// series) into its registry form.
func FromResult(res engine.Result, series *telemetry.Series) Run {
	attr := make(map[string]uint64, engine.NumComponents)
	for _, c := range engine.Components() {
		attr[c.String()] = uint64(res.Attribution[c])
	}
	return Run{
		Scheme:           string(res.Scheme),
		Bench:            res.Bench,
		Instructions:     res.Instructions,
		Cycles:           uint64(res.Cycles),
		IPC:              res.IPC,
		Persists:         res.Persists,
		PPKI:             res.PPKI,
		Epochs:           res.Epochs,
		BMTNodeUpdates:   res.BMTNodeUpdates,
		BMTUpdatesNoCoal: res.BMTUpdatesNoCoal,
		Writebacks:       res.Writebacks,
		WPQStalls:        uint64(res.WPQStalls),
		SlotStalls:       uint64(res.SlotStalls),
		CtrHitRate:       res.CtrHitRate,
		MACHitRate:       res.MACHitRate,
		BMTHitRate:       res.BMTHitRate,
		NVMReads:         res.NVMReads,
		NVMWrites:        res.NVMWrites,
		Attribution:      attr,
		AttribDrift:      res.AttribDrift,
		PersistLatency:   res.PersistLatency.Summarize(),
		EpochLatency:     res.EpochLatency.Summarize(),
		WPQWaitLatency:   res.WPQWaitLatency.Summarize(),
		Telemetry:        series,
	}
}

// MemoInfo summarizes the memoization stack's behaviour while a file
// was recorded: sweep-point and checkpoint hit counts and (for
// multi-pass recordings) cold-vs-warm wall time.
// Informational only — comparisons never gate on it; the memoized
// cycle counts themselves are gated bit-identical to cold runs.
type MemoInfo struct {
	Passes  int     `json:"passes"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hitRate"`

	CheckpointHits   uint64 `json:"checkpointHits,omitempty"`
	CheckpointMisses uint64 `json:"checkpointMisses,omitempty"`

	// ColdWallNS/WarmWallNS are the first (cold) and last (memoized)
	// pass's total wall time; Speedup is their ratio (>1 = the memo
	// paid off). Zero when the recording ran a single pass.
	ColdWallNS uint64  `json:"coldWallNS,omitempty"`
	WarmWallNS uint64  `json:"warmWallNS,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
}

// File is one registry file: a tagged, fingerprinted set of runs.
type File struct {
	Version     int         `json:"version"`
	Tag         string      `json:"tag"`
	CreatedAt   string      `json:"createdAt"`
	Fingerprint Fingerprint `json:"fingerprint"`

	Instructions uint64 `json:"instructions"`
	// Warmup is the per-run warm-up instruction count the sweep used
	// (engine Config.Warmup). Cycle counts are only comparable between
	// files recorded with the same warm-up, so Compare gates on it.
	Warmup     uint64 `json:"warmup,omitempty"`
	FullMemory bool   `json:"fullMemory,omitempty"`

	// Memo, when present, records the memoization counters of the
	// recording sweep (see MemoInfo).
	Memo *MemoInfo `json:"memo,omitempty"`

	Runs []Run `json:"runs"`
}

// New creates an empty registry file for the current environment.
func New(tag string, instructions uint64, fullMemory bool) *File {
	return &File{
		Version:      Version,
		Tag:          tag,
		CreatedAt:    time.Now().UTC().Format(time.RFC3339),
		Fingerprint:  CurrentFingerprint(),
		Instructions: instructions,
		FullMemory:   fullMemory,
	}
}

// Sort orders runs by (bench, scheme) so serialization is stable
// regardless of recording order.
func (f *File) Sort() {
	sort.Slice(f.Runs, func(i, j int) bool {
		if f.Runs[i].Bench != f.Runs[j].Bench {
			return f.Runs[i].Bench < f.Runs[j].Bench
		}
		return f.Runs[i].Scheme < f.Runs[j].Scheme
	})
}

// Find returns the run with the given scheme and bench, or nil.
func (f *File) Find(scheme, bench string) *Run {
	for i := range f.Runs {
		if f.Runs[i].Scheme == scheme && f.Runs[i].Bench == bench {
			return &f.Runs[i]
		}
	}
	return nil
}

// Write serializes f (sorted, indented, trailing newline) to path.
func Write(path string, f *File) error {
	f.Sort()
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("registry: marshal: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a registry file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("registry: parse %s: %w", path, err)
	}
	if f.Version > Version {
		return nil, fmt.Errorf("registry: %s has schema version %d, this build understands <= %d",
			path, f.Version, Version)
	}
	return &f, nil
}
