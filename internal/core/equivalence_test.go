package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hdsmt/internal/cache"
	"hdsmt/internal/config"
	"hdsmt/internal/fetch"
	"hdsmt/internal/perf"
	"hdsmt/internal/pipeline"
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

// TestReferenceSelectionOrder checks the reference selection's view of the
// issue queues at every cycle of runs that share pipelines between threads:
// the per-kind slices queueEntries builds by merging a pipeline's ROBs by
// DispatchSeq, which the reference selection polls, must hold exactly as
// many entries as each queue holds, each a dispatched uop of the queue's
// class, in strictly ascending dispatch order (the queue's own order), with
// the queue's ready list a subsequence of them. Both steppers must also
// keep readyCount equal to the ready lists' total length.
func TestReferenceSelectionOrder(t *testing.T) {
	for _, tc := range []struct {
		cfg     string
		mapping []int
		names   []string
		opts    []Option
	}{
		{"M8", []int{0, 0, 0, 0}, []string{"gzip", "mcf", "gcc", "twolf"}, nil},
		{"2M4", []int{0, 0, 1, 1}, []string{"mcf", "twolf", "vpr", "eon"}, []Option{WithReferenceStepping()}},
	} {
		p, err := New(config.MustParse(tc.cfg), testSpecs(t, tc.names...), tc.mapping, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		step := p.stepper()
		checked := 0
		for cycle := 0; cycle < 4_000; cycle++ {
			step(p)
			listed := 0
			for _, b := range p.pipes {
				p.queueEntries(b)
				for _, q := range b.Queues {
					ready := q.Ready()
					listed += len(ready)
					var prev *pipeline.UOp
					n := 0
					for _, u := range p.entryScratch[q.Kind()] {
						if u.Stage != pipeline.StageDispatched || b.QueueFor(u.Inst.Class) != q {
							t.Fatalf("%s cycle %d: %v entry in stage %v, class %v", tc.cfg, p.cycle, q.Kind(), u.Stage, u.Inst.Class)
						}
						if prev != nil && u.DispatchSeq <= prev.DispatchSeq {
							t.Fatalf("%s cycle %d: %v entries out of dispatch order (%d after %d)", tc.cfg, p.cycle, q.Kind(), u.DispatchSeq, prev.DispatchSeq)
						}
						if len(ready) > 0 && ready[0] == u {
							ready = ready[1:]
						}
						prev = u
						n++
					}
					if n != q.Len() {
						t.Fatalf("%s cycle %d: merge found %d %v entries, the queue holds %d", tc.cfg, p.cycle, n, q.Kind(), q.Len())
					}
					if len(ready) != 0 {
						t.Fatalf("%s cycle %d: %d %v ready-list entries missing from the merge or out of order", tc.cfg, p.cycle, len(ready), q.Kind())
					}
					checked += n
				}
			}
			if listed != p.readyCount {
				t.Fatalf("%s cycle %d: readyCount %d, the ready lists hold %d", tc.cfg, p.cycle, p.readyCount, listed)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no queue entry was ever checked", tc.cfg)
		}
	}
}

// fuzzCase is one simulation FuzzEquivalence runs on both stepping paths.
type fuzzCase struct {
	cfg     config.Microarch
	names   []string
	mapping []int
	budget  uint64
	opts    []Option
}

// Fuzzing draws from these machines and benchmarks.
var (
	fuzzConfigs = []string{"M8", "2M4", "4M2", "2M4+2M2", "1M6+2M4+2M2", "3M4+2M2"}
	fuzzBenches = []string{"gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf"}
)

// decodeFuzzCase turns FuzzEquivalence's inputs into a simulation: machine
// fuzzConfigs[cfgSel], 1+threads%4 threads (at most the machine's
// contexts), thread i running fuzzBenches[benchSel>>4i & 15] on pipeline
// mapSel>>4i & 15 (both modulo their range; a full pipeline passes the
// thread to the next one with a free context), a budget of 200..8000 and a
// warm-up of 0..2000 instructions, policySel picking the default, ICOUNT,
// FLUSH or L1MCOUNT, and slow bit 0 a 40-cycle register file, bit 1 a
// hierarchy whose FLUSH detection lies 500 cycles out.
func decodeFuzzCase(cfgSel, threads uint8, benchSel, mapSel uint64, budget, warmup uint16, policySel, slow uint8) fuzzCase {
	cfg := config.MustParse(fuzzConfigs[int(cfgSel)%len(fuzzConfigs)])
	n := 1 + int(threads%4)
	if c := cfg.ForThreads(n).TotalContexts(); n > c {
		n = c
	}
	fc := fuzzCase{cfg: cfg, budget: 200 + uint64(budget)%7801}
	pipelines := cfg.ForThreads(n).Pipelines
	used := make([]int, len(pipelines))
	for i := 0; i < n; i++ {
		fc.names = append(fc.names, fuzzBenches[int(benchSel>>(4*i)&15)%len(fuzzBenches)])
		pipe := int(mapSel>>(4*i)&15) % len(used)
		for used[pipe] == pipelines[pipe].Contexts {
			pipe = (pipe + 1) % len(used)
		}
		used[pipe]++
		fc.mapping = append(fc.mapping, pipe)
	}
	if w := uint64(warmup) % 2001; w > 0 {
		fc.opts = append(fc.opts, WithWarmup(w))
	}
	switch policySel % 4 {
	case 1:
		fc.opts = append(fc.opts, WithPolicy(fetch.ICount{}))
	case 2:
		fc.opts = append(fc.opts, WithPolicy(fetch.Flush{}))
	case 3:
		fc.opts = append(fc.opts, WithPolicy(fetch.L1MCount{}))
	}
	if slow&1 != 0 {
		fc.cfg.Params.RegAccessLatency = 40
	}
	if slow&2 != 0 {
		hp := cache.DefaultParams()
		hp.L1MissPenalty = 485
		hp.TLBMissCycles = 100
		fc.opts = append(fc.opts, func(pr *Processor) {
			WithHierarchy(cache.NewHierarchyWith(hp, cache.DefaultL1I(), cache.DefaultL1D(), cache.DefaultL2()))(pr)
		})
	}
	return fc
}

// FuzzEquivalence draws a machine, workload, mapping, budget, warm-up and
// fetch policy from its inputs (see decodeFuzzCase) and requires the
// optimized and reference stepping paths to report identical Results and
// Stats. The seed corpus holds TestSteppingEquivalence's cases.
func FuzzEquivalence(f *testing.F) {
	bench := func(names ...string) (sel uint64) {
		for i, name := range names {
			for k, b := range fuzzBenches {
				if b == name {
					sel |= uint64(k) << (4 * i)
				}
			}
		}
		return sel
	}
	pipes := func(mapping ...int) (sel uint64) {
		for i, pipe := range mapping {
			sel |= uint64(pipe) << (4 * i)
		}
		return sel
	}
	_, memNames, memMap := basketCell(f, "2W4")
	// cfg, threads-1, benchmarks, mapping, budget-200, warm-up, policy, slow.
	f.Add(uint8(0), uint8(1), bench("gzip", "mcf"), pipes(0, 0), uint16(5_800), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(0), bench("mcf"), pipes(0), uint16(5_800), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(3), bench("gzip", "mcf", "gcc", "twolf"), pipes(0, 1, 2, 3), uint16(5_800), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(1), bench("mcf", "twolf"), pipes(0, 0), uint16(5_800), uint16(0), uint8(1), uint8(0))
	f.Add(uint8(3), uint8(1), bench("crafty", "gap"), pipes(0, 2), uint16(5_800), uint16(2_000), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(2), bench("gcc", "vpr", "eon"), pipes(0, 1, 2), uint16(5_800), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(1), bench(memNames...), pipes(memMap...), uint16(perf.BasketBudget-200), uint16(perf.BasketWarmup), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(1), bench("gzip", "mcf"), pipes(0, 0), uint16(5_800), uint16(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, cfgSel, threads uint8, benchSel, mapSel uint64, budget, warmup uint16, policySel, slow uint8) {
		fc := decodeFuzzCase(cfgSel, threads, benchSel, mapSel, budget, warmup, policySel, slow)
		opt, ref, optStats, refStats := runBoth(t, fc.cfg, fc.mapping, fc.budget, fc.opts, fc.names...)
		if !reflect.DeepEqual(opt, ref) {
			t.Errorf("%s %v map %v budget %d: results diverge\noptimized: %+v\nreference: %+v",
				fc.cfg.Name, fc.names, fc.mapping, fc.budget, opt, ref)
		}
		if optStats != refStats {
			t.Errorf("%s %v map %v budget %d: global stats diverge\noptimized: %+v\nreference: %+v",
				fc.cfg.Name, fc.names, fc.mapping, fc.budget, optStats, refStats)
		}
	})
}
