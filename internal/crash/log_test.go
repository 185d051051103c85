package crash

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"plp/internal/engine"
	"plp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCrashLogGolden pins the persist log of a whole window — every
// record — byte for byte for a strict and an epoch scheme (gamess, 20k
// instructions).
func TestCrashLogGolden(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	for _, s := range []engine.Scheme{engine.SchemePipeline, engine.SchemeO3} {
		log := &Log{}
		engine.Run(engine.Config{Scheme: s, Instructions: 20_000, Observer: log}, p)
		got, err := json.MarshalIndent(log, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		golden := filepath.Join("testdata", "crashlog_"+string(s)+"_gamess_20k.golden")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/crash -run TestCrashLogGolden -update` to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: crash log differs from %s", s, golden)
		}
	}
}

// TestCrashLogDeterminism pins the crash campaign's repro contract on
// every scheme: the same (scheme, trace seed, window) yields a
// byte-identical persist log across repeated runs and across
// arena-backed engines, so every crash point filtered out of it
// reproduces too.
func TestCrashLogDeterminism(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ar := engine.NewArena()
	for _, s := range engine.AllSchemes() {
		cfg := engine.Config{Scheme: s, Instructions: 30_000}
		var logs [3][]byte
		for i := range logs {
			c := cfg
			log := &Log{}
			c.Observer = log
			if i == 2 {
				c.Arena = ar // arena-backed engine must not leak into the log
			}
			engine.Run(c, p)
			data, err := json.Marshal(log)
			if err != nil {
				t.Fatal(err)
			}
			logs[i] = data
		}
		for i := 1; i < len(logs); i++ {
			if !bytes.Equal(logs[0], logs[i]) {
				t.Errorf("%s: crash log %d differs from run 0", s, i)
			}
		}
	}
}
