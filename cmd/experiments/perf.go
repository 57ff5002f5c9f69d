package main

import (
	"fmt"
	"runtime"
	"time"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/mapping"
	"hdsmt/internal/perf"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// basket is the HEUR measurement basket -perf and -sampled simulate:
// perf.BasketConfig under its heuristic mapping of each of
// perf.BasketWorkloads (one ILP, one MEM, one MIX workload).
type basket struct {
	cfg   config.Microarch
	cells []basketCell
}

type basketCell struct {
	w workload.Workload
	m mapping.Mapping
}

// runFunc simulates one basket cell: sim.Run or sim.RunReference.
type runFunc func(config.Microarch, workload.Workload, mapping.Mapping, sim.Options) (core.Results, error)

func newBasket() (basket, error) {
	b := basket{cfg: config.MustParse(perf.BasketConfig)}
	for _, name := range perf.BasketWorkloads() {
		w := workload.MustByName(name)
		m, err := sim.HeuristicMapping(b.cfg, w) // also warms the profile cache
		if err != nil {
			return basket{}, err
		}
		b.cells = append(b.cells, basketCell{w, m})
	}
	return b, nil
}

// name labels a report over the basket.
func (b basket) name(prefix string) string {
	return fmt.Sprintf("%s/%s/%v", prefix, perf.BasketConfig, perf.BasketWorkloads())
}

// pass simulates every cell with run, reps times over — the simulation is
// deterministic, so the extra reps only steady the wall clock — and
// returns one pass's results, the fastest pass's wall seconds and the heap
// allocations of a mean pass.
func (b basket) pass(run runFunc, opt sim.Options, reps int) (rs []core.Results, wall, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rep := 0; rep < reps; rep++ {
		rs = rs[:0]
		start := time.Now()
		for _, c := range b.cells {
			r, err := run(b.cfg, c.w, c.m, opt)
			if err != nil {
				return nil, 0, 0, err
			}
			rs = append(rs, r)
		}
		if w := time.Since(start).Seconds(); rep == 0 || w < wall {
			wall = w
		}
	}
	runtime.ReadMemStats(&after)
	return rs, wall, float64(after.Mallocs-before.Mallocs) / float64(reps), nil
}

// perfCounts is the work one stepping path simulated on one basket cell.
type perfCounts struct {
	Instructions uint64 `json:"simulated_instructions"`
	Cycles       uint64 `json:"simulated_cycles"`
}

// perfCell is one basket cell's simulated work on both stepping paths.
type perfCell struct {
	Workload  string     `json:"workload"`
	Reference perfCounts `json:"reference"`
	Optimized perfCounts `json:"optimized"`
}

// perfReport is BENCH_PR2.json: the simulated work of one pass over the
// basket on the naive reference stepping path and on the optimized
// (event-driven wakeup + idle fast-forward) path. Only the counts are
// pinned; throughput depends on the machine and goes to stdout.
type perfReport struct {
	Benchmark string     `json:"benchmark"`
	Cells     []perfCell `json:"cells"`
}

// genPerf times the basket on both stepping paths, printing MIPS,
// ns/cycle, allocs/cycle and the optimized/reference speedup, and fails
// if the two paths disagree on any cell's instructions or cycles — they
// must be bit-identical.
func genPerf(p params) (any, error) {
	b, err := newBasket()
	if err != nil {
		return nil, err
	}
	opt := sim.Options{Budget: perf.BasketBudget, Warmup: perf.BasketWarmup}
	modes := []struct {
		name string
		run  runFunc
	}{{"reference", sim.RunReference}, {"optimized", sim.Run}}
	var (
		counts [2][]perfCounts
		mips   [2]float64
	)
	for i, mode := range modes {
		rs, wall, allocs, err := b.pass(mode.run, opt, p.reps)
		if err != nil {
			return nil, err
		}
		var total perfCounts
		for _, r := range rs {
			c := perfCounts{Cycles: r.Cycles}
			for _, n := range r.Committed {
				c.Instructions += n
			}
			counts[i] = append(counts[i], c)
			total.Instructions += c.Instructions
			total.Cycles += c.Cycles
		}
		mips[i] = float64(total.Instructions) / wall / 1e6
		fmt.Printf("perf: %-10s %8.3f MIPS  %8.1f ns/cycle  %6.3f allocs/cycle\n",
			mode.name, mips[i], wall*1e9/float64(total.Cycles), allocs/float64(total.Cycles))
	}
	fmt.Printf("perf: optimized/reference speedup = %.2fx\n", mips[1]/mips[0])
	if err := b.printStepped(opt, counts[1]); err != nil {
		return nil, err
	}

	report := perfReport{Benchmark: b.name("evaluate-HEUR")}
	for i, c := range b.cells {
		ref, opt := counts[0][i], counts[1][i]
		if ref != opt {
			return nil, fmt.Errorf("%s: reference path simulated %d instructions in %d cycles, optimized %d in %d",
				c.w.Name, ref.Instructions, ref.Cycles, opt.Instructions, opt.Cycles)
		}
		report.Cells = append(report.Cells, perfCell{Workload: c.w.Name, Reference: ref, Optimized: opt})
	}
	return report, nil
}

// printStepped reruns each cell on the optimized path through core.New, as
// sim.Run builds it, and prints how many of its cycles (warm-up included)
// the stage loop stepped and how many the idle skip jumped over. want holds
// the cell's measured counts from sim.Run, which the rerun must match.
func (b basket) printStepped(opt sim.Options, want []perfCounts) error {
	for i, c := range b.cells {
		specs, err := sim.Specs(c.w)
		if err != nil {
			return err
		}
		p, err := core.New(b.cfg, specs, c.m, core.WithWarmup(opt.Warmup))
		if err != nil {
			return err
		}
		r, err := p.Run(opt.Budget)
		if err != nil {
			return err
		}
		if r.Cycles != want[i].Cycles {
			return fmt.Errorf("%s: core.New run took %d cycles, sim.Run %d", c.w.Name, r.Cycles, want[i].Cycles)
		}
		stepped, total := p.Stepped(), p.Cycle()
		fmt.Printf("perf: %-10s %8d stepped %8d skipped of %8d cycles (%.1f%% stepped)\n",
			c.w.Name, stepped, total-stepped, total, 100*float64(stepped)/float64(total))
	}
	return nil
}
