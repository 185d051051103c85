// Command plptrace records synthetic workload traces to disk and
// inspects trace files, so experiments can replay identical operation
// streams (or streams produced by external tools) through the
// simulator via `plpsim -trace`. It can also run a short simulation
// with the engine's structured event trace enabled and dump the
// events as JSONL for external analysis.
//
// Usage:
//
//	plptrace -record gamess -ops 1000000 -o gamess.trc
//	plptrace -info gamess.trc
//	plptrace -events gamess -scheme o3 -instr 100000 > events.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"plp/internal/engine"
	"plp/internal/trace"
	"plp/internal/tracefile"
)

func main() {
	var (
		record = flag.String("record", "", "benchmark profile to record")
		ops    = flag.Int("ops", 1_000_000, "operations to record")
		out    = flag.String("o", "trace.trc", "output file")
		info   = flag.String("info", "", "trace file to describe")
		events = flag.String("events", "", "benchmark to simulate with event tracing (JSONL to stdout)")
		scheme = flag.String("scheme", "o3", "scheme for -events")
		instr  = flag.Uint64("instr", 100_000, "instructions for -events")
	)
	flag.Parse()

	switch {
	case *events != "":
		p, ok := trace.ProfileByName(*events)
		if !ok {
			fatalf("unknown benchmark %q", *events)
		}
		if !engine.KnownScheme(engine.Scheme(*scheme)) {
			fatalf("unknown scheme %q", *scheme)
		}
		r, err := writeEvents(os.Stdout, engine.Scheme(*scheme), p, *instr)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "plptrace: %s/%s: %d cycles, %d persists, %d epochs\n",
			*scheme, *events, r.Cycles, r.Persists, r.Epochs)

	case *record != "":
		p, ok := trace.ProfileByName(*record)
		if !ok {
			fatalf("unknown benchmark %q", *record)
		}
		tr := tracefile.Record(p, *ops)
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := tracefile.Write(f, tr.Name, tr.IPC, tr.Ops); err != nil {
			fatalf("write: %v", err)
		}
		st, _ := f.Stat()
		fmt.Printf("recorded %d ops of %s to %s (%d bytes, %.2f bytes/op)\n",
			len(tr.Ops), tr.Name, *out, st.Size(), float64(st.Size())/float64(len(tr.Ops)))

	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		tr, err := tracefile.Read(f)
		if err != nil {
			fatalf("read: %v", err)
		}
		var stores, stack, loads, instrs uint64
		for _, op := range tr.Ops {
			instrs += uint64(op.Gap) + 1
			switch {
			case op.Kind == trace.OpStore && op.Stack:
				stores++
				stack++
			case op.Kind == trace.OpStore:
				stores++
			default:
				loads++
			}
		}
		fmt.Printf("trace        %s\n", *info)
		fmt.Printf("workload     %s (baseline IPC %.2f)\n", tr.Name, tr.IPC)
		fmt.Printf("operations   %d (%d stores, %d loads)\n", len(tr.Ops), stores, loads)
		fmt.Printf("instructions %d\n", instrs)
		if instrs > 0 {
			fmt.Printf("stores PKI   %.2f (stack fraction %.2f)\n",
				float64(stores)/(float64(instrs)/1000), float64(stack)/float64(stores))
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeEvents runs one traced simulation and streams its structured
// events to w as JSONL. Events are emitted in the engine's scheduling
// order, which is fully deterministic (the simulator has no map-order
// or goroutine nondeterminism on this path) — pinned by a golden test.
func writeEvents(w io.Writer, scheme engine.Scheme, p trace.Profile, instr uint64) (engine.Result, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	cfg := engine.Config{Scheme: scheme, Instructions: instr}
	cfg.Observer = engine.NewTracer(func(ev engine.TraceEvent) {
		if err := enc.Encode(ev); err != nil && encErr == nil {
			encErr = err
		}
	})
	r := engine.Run(cfg, p)
	if encErr != nil {
		return r, fmt.Errorf("encode: %w", encErr)
	}
	return r, bw.Flush()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "plptrace: "+format+"\n", args...)
	os.Exit(1)
}
