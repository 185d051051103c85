package main

import (
	"math"
	"sync"
	"time"
)

// The host-speed probe. The host shares its CPUs with other machines,
// and its speed moves by tens of percent over minutes: a run taken in a
// slow phase reads slower for reasons the code does not control. So the
// benchmark times a fixed amount of its own work, on both workers at
// once, just before and just after each workload, and scales every
// end-to-end timing by probeNominalMS over the probe's median. The
// probe does the two things the simulator spends most of its time on —
// drawing geometric gaps with math.Log, as the trace generator does,
// and looking lines up in an 8-way LRU set-associative table, as its
// caches do — but in the benchmark's own code, so no change to the
// program can move it. README.md gives the measurements behind this
// choice of work; the report prints every timing unscaled as well.
const (
	probeSets    = 4096    // 8-way sets per worker's table: 512 KB of tags and stamps
	probeLines   = 1 << 20 // distinct line addresses the probe draws from
	probeLookups = 300_000 // per worker per sample: about 30 ms on the reference host
	probeSamples = 8       // per probe, before and after the workload
	// probeNominalMS is a probe sample's time on the reference host
	// (results/seed.json) in a quiet phase: the speed the scaled timings
	// refer to.
	probeNominalMS = 30.0
)

// probeWay is one way of a probe table set.
type probeWay struct{ tag, stamp uint64 }

// probe holds each worker's table, allocated once per process.
type probe struct {
	tables [][]probeWay
	sink   uint64
}

func newProbe() *probe {
	p := &probe{}
	for w := 0; w < workers; w++ {
		p.tables = append(p.tables, make([]probeWay, probeSets*8))
	}
	return p
}

// probeRun does one worker's share of a sample on an emptied table and
// returns its hit count, so the work cannot be optimized away. Every
// call does the same work.
func probeRun(tab []probeWay, seed uint64) uint64 {
	clear(tab)
	r := newRNG(int64(seed), 0)
	var line, hits uint64
	for n := uint64(1); n <= probeLookups; n++ {
		if r.next()%4 == 0 {
			line = r.next() % probeLines
		} else {
			u := float64(r.next()>>11) / (1 << 53)
			line = (line + uint64(-math.Log(1-u)*40)) % probeLines
		}
		set := tab[(line%probeSets)*8:][:8]
		tag := line/probeSets + 1 // 0 marks an empty way
		victim, hit := 0, false
		for i := range set {
			if set[i].tag == tag {
				set[i].stamp, hit = n, true
				break
			}
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
		if hit {
			hits++
		} else {
			set[victim] = probeWay{tag, n}
		}
	}
	return hits
}

// sample times probeSamples rounds of every worker running its share at
// once, in ms.
func (p *probe) sample() []float64 {
	out := make([]float64, 0, probeSamples)
	for n := 0; n < probeSamples; n++ {
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		t := time.Now()
		for w, tab := range p.tables {
			wg.Add(1)
			go func(w int, tab []probeWay) {
				defer wg.Done()
				v := probeRun(tab, uint64(w)+1)
				mu.Lock()
				p.sink += v
				mu.Unlock()
			}(w, tab)
		}
		wg.Wait()
		out = append(out, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return out
}
