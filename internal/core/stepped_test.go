package core

import (
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/mapping"
	"hdsmt/internal/perf"
	"hdsmt/internal/workload"
)

// basketCell builds one cell of the perf basket exactly as sim.Run does:
// workload name's benchmarks on perf.BasketConfig under the §2.1 HEUR
// mapping computed from their profiled data-cache misses (the benchmark
// table's L1DMisses).
func basketCell(t testing.TB, name string) (cfg config.Microarch, names []string, m []int) {
	t.Helper()
	bs, err := workload.MustByName(name).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	misses := make([]uint64, len(bs))
	for i, b := range bs {
		names = append(names, b.Name)
		misses[i] = b.L1DMisses
	}
	cfg = config.MustParse(perf.BasketConfig)
	if m, err = mapping.Heuristic(cfg.ForThreads(len(bs)), misses); err != nil {
		t.Fatal(err)
	}
	return cfg, names, m
}

// TestSteppedCyclesPinned pins the optimized path's work on the perf
// basket: per cell (warm-up included), the cycles the stage loop runs, the
// ready-list entries issue selection visits and the ROB-head peeks.
// Result-equivalence tests cannot see a regression here — a weaker idle
// test steps more cycles, and a scan that no longer stops early visits
// more entries, to the same Results — so the counts are pinned; a change
// that moves them should say why in CHANGES.md. The reference path steps
// every cycle.
func TestSteppedCyclesPinned(t *testing.T) {
	want := map[string]Work{
		"2W1": {Stepped: 9_376, ReadyVisits: 25_986, HeadPeeks: 30_747},
		"2W4": {Stepped: 16_736, ReadyVisits: 27_866, HeadPeeks: 40_243},
		"2W7": {Stepped: 7_934, ReadyVisits: 25_254, HeadPeeks: 28_999},
	}
	for _, name := range perf.BasketWorkloads() {
		cfg, names, m := basketCell(t, name)
		for _, ref := range []bool{false, true} {
			opts := []Option{WithWarmup(perf.BasketWarmup)}
			if ref {
				opts = append(opts, WithReferenceStepping())
			}
			p, err := New(cfg, testSpecs(t, names...), m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(perf.BasketBudget); err != nil {
				t.Fatal(err)
			}
			w, cycles := p.Work(), p.Cycle()
			if ref {
				if w.Stepped != cycles {
					t.Errorf("%s reference: stepped %d of %d cycles, want every cycle", name, w.Stepped, cycles)
				}
				continue
			}
			if w != want[name] {
				t.Errorf("%s optimized: work %+v, pinned %+v", name, w, want[name])
			}
			if name == "2W4" && 3*w.Stepped > cycles {
				t.Errorf("%s optimized: stepped %d of %d cycles, want at most a third", name, w.Stepped, cycles)
			}
		}
	}
}
