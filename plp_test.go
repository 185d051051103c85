package plp

import "testing"

// The facade tests exercise the public API end to end, the way a
// downstream user would.

func TestFacadeFunctionalMemory(t *testing.T) {
	m, err := NewMemory(MemoryConfig{BMTLevels: 5})
	if err != nil {
		t.Fatal(err)
	}
	var d BlockData
	copy(d[:], "hello, secure persistent memory")
	m.Write(Block(3), d)
	m.Persist(Block(3))
	m.Crash()
	if rep := m.Recover(); !rep.Clean() {
		t.Fatalf("recovery not clean: %+v", rep)
	}
	got, err := m.Read(Block(3))
	if err != nil || got != d {
		t.Fatalf("read back failed: %v", err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	p, ok := BenchmarkByName("gamess")
	if !ok {
		t.Fatal("gamess missing")
	}
	s, err := NewSession(WithProfile(p), WithScheme(Coalescing), WithInstructions(200_000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil || r.Cycles == 0 || r.Persists == 0 {
		t.Fatalf("empty result: %+v", r)
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if len(Benchmarks()) != 15 {
		t.Fatalf("benchmarks = %d", len(Benchmarks()))
	}
}

func TestFacadeExperiments(t *testing.T) {
	drivers := Experiments()
	for _, id := range ExperimentOrder() {
		if _, ok := drivers[id]; !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	e := drivers["coalesce"](ExperimentOptions{Instructions: 200_000, Benches: []string{"gamess"}})
	if e.Table == nil {
		t.Fatal("empty experiment")
	}
}

func TestFacadeRecoveryChecks(t *testing.T) {
	if rep := CheckTableI(FuzzConfig{Seed: 5}); !rep.OK() {
		t.Fatalf("Table I: %v", rep.Failures)
	}
	if rep := CheckRootOrderViolation(FuzzConfig{Seed: 5}); !rep.OK() {
		t.Fatalf("root violation: %v", rep.Failures)
	}
	if rep := FuzzAtomicPersists(FuzzConfig{Seed: 5, Writes: 16}); !rep.OK() {
		t.Fatalf("atomic fuzz: %v", rep.Failures)
	}
	if rep := FuzzEpochOOO(FuzzConfig{Seed: 5, Writes: 16}, 4); !rep.OK() {
		t.Fatalf("epoch fuzz: %v", rep.Failures)
	}
}

func TestFacadePersistencyModels(t *testing.T) {
	mem, err := NewMemory(MemoryConfig{BMTLevels: 5})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewStrictMemory(mem)
	var d BlockData
	copy(d[:], "strict")
	sp.Write(Block(1), d)

	mem2, _ := NewMemory(MemoryConfig{BMTLevels: 5})
	ep := NewEpochMemory(mem2)
	copy(d[:], "epoch")
	ep.Write(Block(1), d)
	ep.Barrier()

	for i, m := range []*Memory{mem, mem2} {
		m.Crash()
		if !m.Recover().Clean() {
			t.Fatalf("memory %d recovery failed", i)
		}
		if got, err := m.Read(Block(1)); err != nil || got[0] == 0 {
			t.Fatalf("memory %d lost data (err %v)", i, err)
		}
	}
}
