package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs, every sample
// weighing the same. xs need not be sorted; it is not modified. An
// empty xs has no quantile: NaN.
func percentile(xs []float64, q float64) float64 { return weightedPercentile(xs, nil, q) }

// weightedPercentile returns the q-quantile (0 <= q <= 1) of xs where
// sample i carries weight ws[i] (nil: every sample weighs 1). Sorted,
// each sample stands at the middle of its share of the total weight;
// the quantile is found at q times the total weight, interpolating
// linearly between the samples on either side, and is clamped to the
// smallest and the largest sample beyond them.
func weightedPercentile(xs, ws []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	weight := func(i int) float64 {
		if ws == nil {
			return 1
		}
		return ws[i]
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	pos := make([]float64, len(idx)) // pos[k]: where the k-th smallest stands
	total := 0.0
	for k, i := range idx {
		pos[k] = total + weight(i)/2
		total += weight(i)
	}
	t := q * total
	k := sort.SearchFloat64s(pos, t)
	switch {
	case k == 0:
		return xs[idx[0]]
	case k == len(pos):
		return xs[idx[len(idx)-1]]
	}
	a, b := xs[idx[k-1]], xs[idx[k]]
	return a + (t-pos[k-1])/(pos[k]-pos[k-1])*(b-a)
}

// minTail is how many samples must lie beyond a reported tail
// percentile: a p90 over 50 samples rests on 5 values and says little.
const minTail = 10

// tailPercent returns the highest of p99, p90 and p75 that has at
// least minTail of n samples beyond it, or 0 when n is too small for
// any of them (the timing is then reported by its median alone).
func tailPercent(n int) int {
	for _, q := range []int{99, 90, 75} {
		if n*(100-q)/100 >= minTail {
			return q
		}
	}
	return 0
}

// timing is a latency distribution as the report prints it: the
// median, the highest tail percentile the sample count supports, and
// the sample count.
type timing struct {
	Median  float64 `json:"median"`
	Tail    float64 `json:"tail,omitempty"`
	TailPct int     `json:"tailPct,omitempty"`
	N       int     `json:"n"`
}

func summarize(xs []float64) timing {
	t := timing{Median: percentile(xs, 0.5), N: len(xs), TailPct: tailPercent(len(xs))}
	if t.TailPct > 0 {
		t.Tail = percentile(xs, float64(t.TailPct)/100)
	}
	return t
}

func (t timing) format(unit string) string {
	if t.TailPct == 0 {
		return fmt.Sprintf("median %.4g %s (n=%d, too few samples for a tail percentile)", t.Median, unit, t.N)
	}
	return fmt.Sprintf("median %.4g %s, p%d %.4g %s (n=%d)", t.Median, unit, t.TailPct, t.Tail, unit, t.N)
}

// ratio returns a/b, or 0 when b is 0 (a rate over no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procMemory returns a process's peak resident set (VmHWM) and peak
// virtual size (VmPeak) in kB from /proc/<pid>/status; pid 0 means
// this process.
func procMemory(pid int) (hwmKB, peakKB uint64, err error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("read memory peaks: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		n, perr := strconv.ParseUint(f[0], 10, 64)
		if perr != nil {
			continue
		}
		switch name {
		case "VmHWM":
			hwmKB = n
		case "VmPeak":
			peakKB = n
		}
	}
	if hwmKB == 0 || peakKB == 0 {
		return 0, 0, fmt.Errorf("%s has no VmHWM/VmPeak", path)
	}
	return hwmKB, peakKB, nil
}

// fingerprint identifies the host a run measured: numbers from two
// runs compare only when these agree.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// parseProm reads the unlabelled samples of a Prometheus text
// exposition (what plpserve serves on /metrics) into name -> value.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || strings.ContainsRune(f[0], '{') {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}
