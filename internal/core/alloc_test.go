package core

import (
	"reflect"
	"testing"

	"hdsmt/internal/bench"
	"hdsmt/internal/cache"
	"hdsmt/internal/config"
)

// newSteppedProcessor builds a 4-thread heterogeneous processor and steps
// it past its warm-up transient (pool growth, ring-slot slices, replay
// buffers reaching steady capacity).
func newSteppedProcessor(tb testing.TB, warmSteps int) *Processor {
	tb.Helper()
	p, err := New(config.MustParse("2M4+2M2"),
		testSpecs(tb, "gzip", "mcf", "gcc", "twolf"), []int{0, 1, 2, 3})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warmSteps; i++ {
		p.step()
	}
	return p
}

// TestStepSteadyStateAllocs pins the zero-allocation property of the
// cycle loop: once scratch buffers, uop pool and event-ring slots have
// grown to their working sizes, stepping the processor must not allocate.
// A tiny budget is tolerated for capacity discovery on rare tail events
// (a new all-run maximum of completions landing on one ring slot grows
// that slot's slice once, permanently); steady-state throughput paths
// allocate nothing, which is what BenchmarkStep's ReportAllocs shows as
// 0 allocs/op.
func TestStepSteadyStateAllocs(t *testing.T) {
	p := newSteppedProcessor(t, 200_000)
	const cyclesPerRun = 5_000
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < cyclesPerRun; i++ {
			p.step()
		}
	})
	if allocs > 0.001*cyclesPerRun {
		t.Errorf("steady-state step() allocates: %.1f allocs per %d cycles, want ~0", allocs, cyclesPerRun)
	}
}

// BenchmarkStep measures the raw cost of one simulated cycle in steady
// state, with b.ReportAllocs keeping the zero-allocation property visible
// in every benchmark run.
func BenchmarkStep(b *testing.B) {
	p := newSteppedProcessor(b, 60_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step()
	}
}

// TestNewValidatesEventRingBounds covers the construction-time guards: a
// hierarchy whose FLUSH L2-miss detect latency does not fit the event
// ring must be rejected (the flushAt scheduling would otherwise wrap
// silently onto earlier cycles), as must a front-end delay that exceeds
// the ring.
func TestNewValidatesEventRingBounds(t *testing.T) {
	params := cache.DefaultParams()
	params.L1MissPenalty = ringSize + 10 // detect latency beyond the ring
	h := cache.NewHierarchyWith(params, cache.DefaultL1I(), cache.DefaultL1D(), cache.DefaultL2())
	_, err := New(config.MustParse("M8"), testSpecs(t, "gzip"), []int{0}, WithHierarchy(h))
	if err == nil {
		t.Fatal("New accepted a FLUSH detect latency beyond the event ring")
	}

	cfg := config.MustParse("M8")
	cfg.Params.RegAccessLatency = ringSize + 2
	_, err = New(cfg, testSpecs(t, "gzip"), []int{0})
	if err == nil {
		t.Fatal("New accepted a front-end issue delay beyond the event ring")
	}
}

// TestNewRejectsCompletionBeyondEventRing: every completion pays the
// register-read delay on top of its class's latency, so a slow register
// file pushes the slowest load's completion past the completion ring. New
// must reject that as an error (it used to accept it and Run panicked at
// the first such load), and the bound must be exact: on 2M4+2M2 a load
// takes at most 1 (address) + 3 (L1) + 300 (TLB miss) + 17 (queued behind
// the other 17 data-cache accesses of its cycle: 6 load/store units, 12
// commit slots) + 22 (L1 miss) + 250 (memory) = 593 cycles, so the largest
// accepted register-access latency is ringSize-593 = 431.
func TestNewRejectsCompletionBeyondEventRing(t *testing.T) {
	for _, tc := range []struct {
		lat    int
		accept bool
	}{{600, false}, {432, false}, {431, true}} {
		cfg := config.MustParse("2M4+2M2")
		cfg.Params.RegAccessLatency = tc.lat
		p, err := New(cfg, testSpecs(t, "mcf", "twolf"), []int{0, 2})
		if !tc.accept {
			if err == nil {
				t.Errorf("register access latency %d: New accepted a load completion beyond the event ring", tc.lat)
			}
			continue
		}
		if err != nil {
			t.Fatalf("register access latency %d: %v", tc.lat, err)
		}
		if _, err := p.Run(300); err != nil {
			t.Fatalf("register access latency %d: %v", tc.lat, err)
		}
	}
}

// TestNewAcceptsLargestEventRingReach shows that sizing the short event
// rings to their reach rejects nothing the (0, ringSize) bounds above
// accept: the largest FLUSH detect latency and the largest front-end issue
// delay each get a ringSize-slot ring, and both stepping paths run them to
// identical Results.
func TestNewAcceptsLargestEventRingReach(t *testing.T) {
	// hdSMT's defaults: a 6-cycle issue delay and a 37-cycle detection.
	p, err := New(config.MustParse("2M4+2M2"), testSpecs(t, "gzip"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.issueTimers) != 8 || len(p.flushAt) != 64 || len(p.completions) != ringSize {
		t.Errorf("rings have %d/%d/%d slots (issue timers/FLUSH/completions), want 8/64/%d",
			len(p.issueTimers), len(p.flushAt), len(p.completions), ringSize)
	}

	// FLUSH detection ringSize-1 cycles out, through a slow L2 array (its
	// latency only times the miss detector). Every load completes before
	// then, so no detection is scheduled. Each run gets a fresh hierarchy.
	hp := cache.DefaultParams()
	hp.L2Latency = ringSize - 1 - hp.L1HitLatency - hp.L1MissPenalty
	slowDetect := func(pr *Processor) {
		WithHierarchy(cache.NewHierarchyWith(hp, cache.DefaultL1I(), cache.DefaultL1D(), cache.DefaultL2()))(pr)
	}

	// A front-end issue delay of ringSize-1 cycles through a slow register
	// file. Every completion pays the extra read delay too, so the program
	// keeps to operations short enough for the completion ring: no loads,
	// divides or floating point.
	slowRF := config.MustParse("M8")
	slowRF.Params.RegAccessLatency = ringSize - frontLatency
	b := bench.MustByName("gzip")
	b.Params.LoadFrac, b.Params.DivFrac, b.Params.FPFrac = 0, 0, 0
	prog, err := b.Build(0x100000)
	if err != nil {
		t.Fatal(err)
	}
	shortOps := []ThreadSpec{{Name: "gzip-alu", Program: prog, Seed: b.Params.Seed, DataBase: 0x10000000}}

	for _, tc := range []struct {
		name  string
		cfg   config.Microarch
		specs []ThreadSpec
		opts  []Option
		ring  func(*Processor) eventRing
	}{
		{"flush-detect", config.MustParse("M8"), testSpecs(t, "gzip", "mcf"), []Option{slowDetect},
			func(p *Processor) eventRing { return p.flushAt }},
		{"issue-delay", slowRF, shortOps, nil,
			func(p *Processor) eventRing { return p.issueTimers }},
	} {
		var rs [2]Results
		for i, extra := range [][]Option{nil, {WithReferenceStepping()}} {
			p, err := New(tc.cfg, tc.specs, make([]int, len(tc.specs)), append(append([]Option{}, tc.opts...), extra...)...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if n := len(tc.ring(p)); n != ringSize {
				t.Errorf("%s: ring has %d slots, want %d", tc.name, n, ringSize)
			}
			if rs[i], err = p.Run(1_000); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !reflect.DeepEqual(rs[0], rs[1]) {
			t.Errorf("%s: results diverge\noptimized: %+v\nreference: %+v", tc.name, rs[0], rs[1])
		}
	}
}

// TestWithHierarchyValid exercises the WithHierarchy option on a valid
// custom hierarchy: the processor must simulate against it.
func TestWithHierarchyValid(t *testing.T) {
	h := cache.NewHierarchy()
	p, err := New(config.MustParse("M8"), testSpecs(t, "gzip"), []int{0}, WithHierarchy(h))
	if err != nil {
		t.Fatal(err)
	}
	if p.Hierarchy() != h {
		t.Fatal("WithHierarchy did not install the hierarchy")
	}
	if _, err := p.Run(2_000); err != nil {
		t.Fatal(err)
	}
}
