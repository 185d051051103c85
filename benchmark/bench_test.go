package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/trace"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a tiny run spawns its child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestTimedSourceIsTransparent pins the timing wrapper the layer
// replays feed the engine: every scheme's result must be bit-identical
// to plain engine.Run.
func TestTimedSourceIsTransparent(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	for _, s := range paperSchemes {
		cfg := engine.Config{Scheme: s, Instructions: 100_000}
		want := engine.Run(cfg, p)
		src := &timedSource{gen: trace.NewGenerator(p)}
		got := engine.RunSource(cfg, p.Name, p.IPC, src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: timed source changed the result: cycles %d, want %d", s, got.Cycles, want.Cycles)
		}
		if runDigest(registry.FromResult(got, nil)) != runDigest(registry.FromResult(want, nil)) {
			t.Errorf("%s: digests differ", s)
		}
		if src.ops == 0 || src.fill <= 0 {
			t.Errorf("%s: wrapper timed nothing (ops %d, fill %v)", s, src.ops, src.fill)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99},
	} {
		if got := tailPercent(tc.n); got != tc.want {
			t.Errorf("tailPercent(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPct != 90 || s.Median != 50.5 || math.Abs(s.Tail-90.5) > 1e-9 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if s := summarize(xs[:20]); s.TailPct != 0 || s.Tail != 0 {
		t.Errorf("summarize of 20 samples reports a tail: %+v", s)
	}
}

// TestUnitMetricsWeighInputsEqually pins what makes the unit metrics
// independent of the mix of inputs a run finishes: an input repeated
// three times weighs no more in the percentiles than one run once, and
// the throughput counts one median unit per input.
func TestUnitMetricsWeighInputsEqually(t *testing.T) {
	w := &workloadResult{
		units:     []float64{10, 10, 10, 20, 30},
		unitKeys:  []string{"a", "a", "a", "b", "c"},
		unitInstr: []uint64{1e6, 1e6, 1e6, 2e6, 3e6},
	}
	if got := percentile(w.units, 0.5); got != 10 {
		t.Errorf("unweighted median = %v, want 10", got)
	}
	if got := w.unitPercentile(0.5); math.Abs(got-20) > 1e-9 {
		t.Errorf("median with every input weighted equally = %v, want 20", got)
	}
	if got, want := w.unitPercentile(1), 30.0; got != want {
		t.Errorf("p100 = %v, want %v", got, want)
	}
	// One pass: 6 Minstr in (10+20+30) ms on two workers.
	if got, want := w.minstrPerS(), 6e6/(0.060/workers)/1e6; math.Abs(got-want) > 1e-9 {
		t.Errorf("sim_minstr_per_s = %v, want %v", got, want)
	}
}

// TestVerifyCatchesWrongOutput feeds the checker an output that no
// engine run produces.
func TestVerifyCatchesWrongOutput(t *testing.T) {
	o := options{seed: 2, scale: 1, root: ".."}
	key := pointKey(string(engine.SchemeSP), "gamess", 20_000)
	good, err := reference(key)
	if err != nil {
		t.Fatal(err)
	}
	c, err := verify(context.Background(), o, []point{{Unit: 0, Key: key, Value: good}, {Unit: 1, Key: key, Value: good}})
	if err != nil || len(c.failed) != 0 {
		t.Fatalf("correct outputs failed: %v %v", err, c.failed)
	}
	c, err = verify(context.Background(), o, []point{{Unit: 0, Key: key, Value: good}, {Unit: 1, Key: key, Value: "0000"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.failed) != 2 {
		t.Errorf("a wrong output failed units %v, want both units of the key", c.failed)
	}
}

// TestTinyRuns runs every workload at a tiny scale, traced and not, and
// checks the printed result against BENCHMARK.json.
func TestTinyRuns(t *testing.T) {
	f := loadBenchmarkFile(t)
	bin := t.TempDir()
	if !testing.Short() {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, "plpserve"), "plp/cmd/plpserve")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build plpserve: %v\n%s", err, out)
		}
	}
	for _, tc := range []struct {
		workload string
		trace    string
	}{
		{"paper-sweep", "0"}, {"paper-sweep", "1"}, {"design-sweep", "0"},
		{"service-local", "0"}, {"service-fabric", "0"}, {"service-fabric", "1"},
	} {
		t.Run(tc.workload+"/trace"+tc.trace, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(tc.workload, "service-") {
				t.Skip("service workloads start plpserve processes")
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", tc.workload, "--seed", "3", "--seconds", "1", "--trace", tc.trace,
				"--scale", "0.02", "--root", "..", "--bin", bin}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
			}
			var res result
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v", res)
			}
			want := map[string]string{}
			list := f.EndToEnd
			if tc.trace == "1" {
				list = f.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("printed metrics %v, BENCHMARK.json lists %v", got, want)
			}
		})
	}
}
