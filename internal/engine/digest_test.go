package engine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digestInstr is the measured length of every digest row: long enough
// that every scheme persists, fills its WPQ and (epoch schemes) flushes
// many epochs, short enough that the whole matrix runs in seconds.
const digestInstr = 120_000

var digestBenches = []string{"gamess", "milc", "gcc"}

type digestRow struct {
	name string
	cfg  Config
}

// digestConfigs is the config matrix of one (scheme, bench) pair:
// every switch that steers the op loop or a store step, plus a
// cancellation that stops the run early. The default row comes first.
// At the default 4 MB LLC no bench evicts a dirty line within
// digestInstr, so the llc256 row is the one that drives secure_WB's
// write-back persists (and their WPQ stalls).
func digestConfigs(s Scheme) []digestRow {
	with := func(f func(*Config)) Config {
		c := Config{Scheme: s, Instructions: digestInstr}
		f(&c)
		return c
	}
	polls := 0
	return []digestRow{
		{"default", with(func(*Config) {})},
		{"full", with(func(c *Config) { c.FullMemory = true })},
		{"readverify", with(func(c *Config) { c.ReadVerification = true })},
		{"warmup", with(func(c *Config) { c.Warmup = 40_000 })},
		{"idealmdc", with(func(c *Config) { c.IdealMDC = true })},
		{"faultack", with(func(c *Config) { c.FaultEarlyRootAck = true })},
		{"wpq4-bmt5", with(func(c *Config) { c.WPQEntries = 4; c.BMTLevels = 5 })},
		{"cancel", with(func(c *Config) { c.Cancel = pollFunc(func() bool { polls++; return polls >= 2 }) })},
		{"llc256", with(func(c *Config) { c.LLCKB = 256 })},
	}
}

// resultDigest renders one run as a golden line: the headline counters
// in the clear, and a SHA-256 over the full %+v rendering of the Result
// (histogram buckets, Attribution, AttribDrift and hit rates included).
func resultDigest(name string, r Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return fmt.Sprintf("%s cycles=%d persists=%d bmt=%d nvmw=%d epochs=%d sha256=%x",
		name, r.Cycles, r.Persists, r.BMTNodeUpdates, r.NVMWrites, r.Epochs, sum)
}

// digestObserver hashes every Observer call of a run: each persist and
// epoch record, and each probe's cycle, counters and stall vector.
type digestObserver struct {
	h     hash.Hash
	calls int
}

func (d *digestObserver) Persist(r PersistRecord) { d.calls++; fmt.Fprintf(d.h, "P%+v\n", r) }
func (d *digestObserver) Epoch(r EpochRecord)     { d.calls++; fmt.Fprintf(d.h, "E%+v\n", r) }
func (d *digestObserver) Sample(p Probe)          { d.probe('S', p) }
func (d *digestObserver) End(p Probe)             { d.probe('X', p) }

func (d *digestObserver) probe(tag byte, p Probe) {
	d.calls++
	fmt.Fprintf(d.h, "%c %d %d %d %d %d %v\n", tag, p.At(), p.Persists(), p.Epochs(),
		p.NVMReads(), p.NVMWrites(), p.Stalls())
}

// digestLines runs the whole matrix: every scheme × bench × config as
// a Result digest, then every scheme on gamess and gcc — at the default
// config and with the small LLC — as an Observer-call digest.
func digestLines(t *testing.T) []string {
	t.Helper()
	ar := NewArena()
	var lines []string
	for _, s := range AllSchemes() {
		for _, bench := range digestBenches {
			p, ok := trace.ProfileByName(bench)
			if !ok {
				t.Fatalf("unknown profile %s", bench)
			}
			var def Result
			for _, row := range digestConfigs(s) {
				cfg := row.cfg
				cfg.Arena = ar
				r := Run(cfg, p)
				switch row.name {
				case "default":
					def = r
				case "cancel":
					if r.Cycles >= def.Cycles {
						t.Fatalf("%s/%s/%s: run did not stop early (%d cycles, default %d)",
							s, bench, row.name, r.Cycles, def.Cycles)
					}
				}
				lines = append(lines, resultDigest(fmt.Sprintf("%s/%s/%s", s, bench, row.name), r))
			}
		}
	}
	for _, s := range AllSchemes() {
		for _, bench := range []string{"gamess", "gcc"} {
			p, _ := trace.ProfileByName(bench)
			// "nocrash" is the default config; the golden pins the name.
			for _, name := range []string{"nocrash", "llc256"} {
				obs := &digestObserver{h: sha256.New()}
				cfg := Config{Scheme: s, Instructions: digestInstr, Observer: obs, Arena: ar}
				if name == "llc256" {
					cfg.LLCKB = 256
				}
				Run(cfg, p)
				lines = append(lines, fmt.Sprintf("observer/%s/%s/%s calls=%d sha256=%x",
					s, bench, name, obs.calls, obs.h.Sum(nil)))
			}
		}
	}
	return lines
}

// TestGoldenDigests pins the engine's whole output, not just the
// headline counters TestGoldenCycles checks: the full Result of 324
// config rows and every Observer call of 48 runs. A refactor of the
// op loop or a store step must leave every line untouched.
func TestGoldenDigests(t *testing.T) {
	got := digestLines(t)
	golden := filepath.Join("testdata", "digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/engine -run TestGoldenDigests -update` to create it)", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest rows, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			t.Errorf("row %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d digest rows differ from %s", bad, len(got), golden)
	}
}
