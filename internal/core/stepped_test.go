package core

import (
	"testing"

	"hdsmt/internal/bench"
	"hdsmt/internal/config"
	"hdsmt/internal/mapping"
	"hdsmt/internal/perf"
	"hdsmt/internal/workload"
)

// basketCell builds one cell of the perf basket exactly as sim.Run does:
// workload name's benchmarks on perf.BasketConfig under the §2.1 HEUR
// mapping computed from their profiled data-cache misses.
func basketCell(t testing.TB, name string) (cfg config.Microarch, names []string, m []int) {
	t.Helper()
	bs, err := workload.MustByName(name).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	misses := make([]uint64, len(bs))
	for i, b := range bs {
		names = append(names, b.Name)
		if misses[i], err = bench.DCacheMisses(b, bench.ProfileLen); err != nil {
			t.Fatal(err)
		}
	}
	cfg = config.MustParse(perf.BasketConfig)
	if m, err = mapping.Heuristic(cfg.ForThreads(len(bs)), misses); err != nil {
		t.Fatal(err)
	}
	return cfg, names, m
}

// TestSteppedCyclesPinned pins the idle-cycle skip's work on the perf
// basket: the exact number of cycles the optimized path's stage loop runs
// per cell (warm-up included). Result-equivalence tests cannot see a
// regression here — a weaker idle test steps more cycles to the same
// Results — so the counts are pinned; a change that moves them should say
// why in CHANGES.md. The reference path steps every cycle.
func TestSteppedCyclesPinned(t *testing.T) {
	want := map[string]uint64{"2W1": 9_376, "2W4": 16_736, "2W7": 7_934}
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
			stepped, cycles := p.Stepped(), p.Cycle()
			if ref {
				if stepped != cycles {
					t.Errorf("%s reference: stepped %d of %d cycles, want every cycle", name, stepped, cycles)
				}
				continue
			}
			if stepped != want[name] {
				t.Errorf("%s optimized: stepped %d cycles, pinned %d", name, stepped, want[name])
			}
			if name == "2W4" && 3*stepped > cycles {
				t.Errorf("%s optimized: stepped %d of %d cycles, want at most a third", name, stepped, cycles)
			}
		}
	}
}
