package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hdsmt/internal/cache"
	"hdsmt/internal/config"
	"hdsmt/internal/fetch"
	"hdsmt/internal/perf"
)

// runBoth runs the same simulation twice — once on the optimized stepping
// path (event-driven wakeup + idle-cycle fast-forward) and once on the
// naive reference path — and returns both outcomes.
func runBoth(t *testing.T, cfg config.Microarch, mapping []int, budget uint64, opts []Option, names ...string) (opt, ref Results, optStats, refStats Stats) {
	t.Helper()
	run := func(extra ...Option) (Results, Stats) {
		p, err := New(cfg, testSpecs(t, names...), mapping, append(append([]Option{}, opts...), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		return r, p.GlobalStats()
	}
	opt, optStats = run()
	ref, refStats = run(WithReferenceStepping())
	return opt, ref, optStats, refStats
}

// TestSteppingEquivalence pins the tentpole invariant: the event-driven
// wakeup scheduler and the idle-cycle fast-forward must be bit-identical
// to per-cycle polling across machine models, fetch policies (FLUSH
// mechanism on and off), thread counts, and event rings of every size.
func TestSteppingEquivalence(t *testing.T) {
	// The MEM basket cell, where the idle skip does most of its work:
	// completed uops queue behind an L2-missing ROB head.
	memCfg, memNames, memMap := basketCell(t, "2W4")

	// Both construction-sized rings far from their default lengths: a
	// 40-cycle register file stretches the issue-timer reach to 44 cycles
	// (64 slots), and a slow L1 miss puts FLUSH detection 500 cycles out
	// (512 slots). The TLB miss shrinks so the longest completion still
	// fits the completion ring. Each run gets a fresh (cold) hierarchy.
	slowRF := config.MustParse("M8")
	slowRF.Params.RegAccessLatency = 40
	hp := cache.DefaultParams()
	hp.L1MissPenalty = 485
	hp.TLBMissCycles = 100
	slowL2 := func(pr *Processor) {
		WithHierarchy(cache.NewHierarchyWith(hp, cache.DefaultL1I(), cache.DefaultL1D(), cache.DefaultL2()))(pr)
	}

	cases := []struct {
		cfg     config.Microarch
		mapping []int
		opts    []Option
		names   []string
		budget  uint64 // 6_000 when zero
	}{
		// Monolithic baseline: FLUSH mechanism active, mcf stalls hard.
		{config.MustParse("M8"), []int{0, 0}, nil, []string{"gzip", "mcf"}, 0},
		// Single memory-bound thread: the fast-forward stress case.
		{config.MustParse("M8"), []int{0}, nil, []string{"mcf"}, 0},
		// Heterogeneous multipipeline, L1MCOUNT.
		{config.MustParse("2M4+2M2"), []int{0, 1, 2, 3}, nil, []string{"gzip", "mcf", "gcc", "twolf"}, 0},
		// ICOUNT override: FLUSH mechanism disabled on the baseline.
		{config.MustParse("M8"), []int{0, 0}, []Option{WithPolicy(fetch.ICount{})}, []string{"mcf", "twolf"}, 0},
		// Warm-up boundary crossing.
		{config.MustParse("2M4+2M2"), []int{0, 2}, []Option{WithWarmup(2_000)}, []string{"crafty", "gap"}, 0},
		// Three-pipeline heterogeneous machine.
		{config.MustParse("1M6+2M4+2M2"), []int{0, 1, 2}, nil, []string{"gcc", "vpr", "eon"}, 0},
		// The 2W4 basket cell at the basket's budget and warm-up.
		{memCfg, memMap, []Option{WithWarmup(perf.BasketWarmup)}, memNames, perf.BasketBudget},
		// FLUSH on, with both short rings resized.
		{slowRF, []int{0, 0}, []Option{slowL2}, []string{"gzip", "mcf"}, 0},
	}
	for _, tc := range cases {
		budget := tc.budget
		if budget == 0 {
			budget = 6_000
		}
		opt, ref, optStats, refStats := runBoth(t, tc.cfg, tc.mapping, budget, tc.opts, tc.names...)
		if !reflect.DeepEqual(opt, ref) {
			t.Errorf("%s/%v: results diverge\noptimized: %+v\nreference: %+v", tc.cfg.Name, tc.names, opt, ref)
		}
		if optStats != refStats {
			t.Errorf("%s/%v: global stats diverge\noptimized: %+v\nreference: %+v", tc.cfg.Name, tc.names, optStats, refStats)
		}
	}
}

// TestSteppingEquivalenceRandomized drives the same invariant through
// randomized configurations: random machine, workload mix, thread count,
// policy override and budget, over a fixed set of seeds so failures
// reproduce.
func TestSteppingEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized equivalence sweep is a tier-2 test")
	}
	configs := []string{"M8", "2M4", "2M4+2M2", "4M2", "1M6+2M4+2M2"}
	benches := []string{"gzip", "mcf", "gcc", "twolf", "gap", "vortex", "vpr", "crafty", "eon", "parser"}
	policies := []Option{nil, WithPolicy(fetch.ICount{}), WithPolicy(fetch.Flush{}), WithPolicy(fetch.L1MCount{})}[0:]
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.MustParse(configs[rng.Intn(len(configs))])
		n := 1 + rng.Intn(4)
		cfg = cfg.ForThreads(n)
		if cfg.TotalContexts() < n {
			n = cfg.TotalContexts()
		}
		names := make([]string, n)
		for i := range names {
			names[i] = benches[rng.Intn(len(benches))]
		}
		// A random feasible mapping: place each thread on a pipeline with a
		// free context.
		used := make([]int, len(cfg.Pipelines))
		mapping := make([]int, n)
		for i := range mapping {
			for {
				pi := rng.Intn(len(cfg.Pipelines))
				if used[pi] < cfg.Pipelines[pi].Contexts {
					used[pi]++
					mapping[i] = pi
					break
				}
			}
		}
		var opts []Option
		if po := policies[rng.Intn(len(policies))]; po != nil {
			opts = append(opts, po)
		}
		if rng.Intn(2) == 1 {
			opts = append(opts, WithWarmup(1_000))
		}
		budget := uint64(2_000 + rng.Intn(4_000))
		opt, ref, optStats, refStats := runBoth(t, config.MustParse(cfg.Name), mapping, budget, opts, names...)
		if !reflect.DeepEqual(opt, ref) {
			t.Errorf("seed %d (%s, %v, map %v, budget %d): results diverge\noptimized: %+v\nreference: %+v",
				seed, cfg.Name, names, mapping, budget, opt, ref)
		}
		if optStats != refStats {
			t.Errorf("seed %d: global stats diverge\noptimized: %+v\nreference: %+v", seed, optStats, refStats)
		}
	}
}

// TestSteppingEquivalenceDynamicRemap covers the dynamic-remapping path:
// remap boundaries are wakeup events (the interval tick must not be
// skipped over), and migration squashes must unsubscribe in-flight uops
// from the wakeup structures.
func TestSteppingEquivalenceDynamicRemap(t *testing.T) {
	swap := func(misses []uint64, current []int) []int {
		// Rotate threads across pipelines every interval: maximum churn.
		out := make([]int, len(current))
		for i, p := range current {
			out[i] = p
		}
		if len(out) == 2 {
			out[0], out[1] = out[1], out[0]
		}
		return out
	}
	run := func(extra ...Option) Results {
		opts := append([]Option{WithDynamicMapping(1_500, swap)}, extra...)
		p, err := New(config.MustParse("2M4+2M2"), testSpecs(t, "gzip", "mcf"), []int{0, 2}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(5_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	opt := run()
	ref := run(WithReferenceStepping())
	if !reflect.DeepEqual(opt, ref) {
		t.Errorf("dynamic remap: results diverge\noptimized: %+v\nreference: %+v", opt, ref)
	}
}
