package main

import (
	"context"
	"fmt"

	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// The search, pareto and power artifacts evaluate machines on one MIX
// workload at a small simulation budget, so exhaustive enumeration of
// their spaces stays affordable, and seed every search with seed.
const (
	searchWorkload = "2W7"
	seed           = 1
)

var searchSim = sim.Options{Budget: 2_000, Warmup: 1_000}

// smallSpace is the space strategies are scored against: every multiset of
// ≤ 3 pipelines × 3 queue scalings × 2 decoupling-buffer scalings. It is
// small enough to enumerate, so exhaustive search gives the ground truth.
func smallSpace(wls []workload.Workload) search.Space {
	sp := search.NewSpace(3, 0, wls)
	sp.QueueScales = []int{75, 100, 125}
	sp.FetchBufScales = []int{100, 125}
	return sp
}

// runSearch runs the named strategy on a fresh engine, so simulation
// counts are honest (no cross-strategy cache help), reporting into the
// shared registry.
func runSearch(sp search.Space, strategy string, opts search.Options) (*search.Result, error) {
	st, err := search.ByName(strategy)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(obsEngineOptions(0))
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	opts.Telemetry = obs.reg
	return search.NewDriver(runner).Search(context.Background(), sp, st, opts)
}

// exhaustiveOptimum enumerates sp on a fresh engine; the result's Best is
// the optimum the budgeted strategies must find.
func exhaustiveOptimum(sp search.Space) (*search.Result, error) {
	exh, err := runSearch(sp, "exhaustive", search.Options{Sim: searchSim})
	if err != nil {
		return nil, err
	}
	if exh.Best == nil {
		return nil, fmt.Errorf("exhaustive search found no feasible machine")
	}
	return exh, nil
}

// sameMachine reports whether p is want's machine: the same
// configuration and fetch policy.
func sameMachine(p, want *search.TrajectoryPoint) bool {
	return p != nil && p.Config == want.Config && p.Policy == want.Policy
}

// missedOptimum is the error of a strategy whose incumbent is not the
// exhaustive optimum.
func missedOptimum(strategy string, res *search.Result, optimum *search.TrajectoryPoint) error {
	got := "(none)"
	if res.Best != nil {
		got = res.Best.Name()
	}
	return fmt.Errorf("%s missed the exhaustive optimum (%s vs %s)", strategy, got, optimum.Name())
}

// frontSearch runs the named multi-objective strategy on a fresh engine
// and fails unless its front is non-empty and mutually non-dominated and
// its hypervolume trajectory never falls.
func frontSearch(sp search.Space, name string, opts search.Options) (*search.Result, error) {
	res, err := runSearch(sp, name, opts)
	if err != nil {
		return nil, err
	}
	if len(res.Front) == 0 {
		return nil, fmt.Errorf("%s produced an empty front", name)
	}
	if err := search.CheckFront(opts.Objectives, res.Front); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := assertMonotoneHV(res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	last := res.Hypervolume[len(res.Hypervolume)-1]
	fmt.Printf("%-6s front %d machines, hypervolume %.2f after %d evaluations\n",
		name, len(res.Front), last.Hypervolume, res.Evaluations)
	return res, nil
}

// assertMonotoneHV verifies the hypervolume trajectory never decreases —
// true whenever the archive never prunes, which these budgets guarantee.
func assertMonotoneHV(res *search.Result) error {
	if len(res.Hypervolume) == 0 {
		return fmt.Errorf("no hypervolume trajectory")
	}
	last := 0.0
	for _, hp := range res.Hypervolume {
		if hp.Hypervolume < last {
			return fmt.Errorf("hypervolume fell from %v to %v at evaluation %d", last, hp.Hypervolume, hp.Evaluations)
		}
		last = hp.Hypervolume
	}
	return nil
}

// searchStrategyEntry is one guided strategy's search-efficiency record.
type searchStrategyEntry struct {
	Strategy string `json:"strategy"`
	Budget   int    `json:"budget"`
	Seed     int64  `json:"seed"`
	// FoundOptimum: the strategy's incumbent equals the exhaustive optimum.
	FoundOptimum bool `json:"found_optimum"`
	// SimulationRatio is this search's executed simulations over the
	// exhaustive baseline's (the simulations-to-optimum criterion: ≤ 0.30).
	SimulationRatio float64        `json:"simulation_ratio"`
	Result          *search.Result `json:"result"`
}

// searchReport is BENCH_PR3.json: search efficiency vs exhaustive
// enumeration on a space small enough to enumerate, plus a budgeted ACO
// trajectory on the enriched space exhaustive search cannot touch.
type searchReport struct {
	Name      string   `json:"name"`
	Workloads []string `json:"workloads"`
	SimBudget uint64   `json:"sim_budget"`
	SimWarmup uint64   `json:"sim_warmup"`

	SmallSpace struct {
		Genotypes  int64                 `json:"genotypes"`
		Candidates int                   `json:"candidates"`
		Exhaustive *search.Result        `json:"exhaustive"`
		Strategies []searchStrategyEntry `json:"strategies"`
	} `json:"small_space"`

	EnrichedSpace struct {
		Genotypes int64          `json:"genotypes"`
		ACO       *search.Result `json:"aco"`
	} `json:"enriched_space"`
}

// genSearch measures search efficiency. Every run uses a fresh engine so
// simulation counts are honest; it fails if a guided strategy misses the
// optimum or overspends the 30% criterion.
func genSearch(params) (any, error) {
	wls := []workload.Workload{workload.MustByName(searchWorkload)}
	report := searchReport{Name: "search-efficiency", Workloads: []string{searchWorkload},
		SimBudget: searchSim.Budget, SimWarmup: searchSim.Warmup}

	small := smallSpace(wls)
	report.SmallSpace.Genotypes = small.Size()
	report.SmallSpace.Candidates = len(small.Candidates())

	exh, err := exhaustiveOptimum(small)
	if err != nil {
		return nil, err
	}
	report.SmallSpace.Exhaustive = exh
	fmt.Printf("search: exhaustive %d evaluations, %d simulations, optimum %s (IPC/mm² %.5f)\n",
		exh.Evaluations, exh.Simulations, exh.Best.Config, exh.Best.Metric("per_area"))

	budget := exh.Evaluations * 30 / 100
	for _, name := range []string{"hillclimb", "aco"} {
		res, err := runSearch(small, name, search.Options{Budget: budget, Seed: seed, Sim: searchSim})
		if err != nil {
			return nil, err
		}
		entry := searchStrategyEntry{Strategy: name, Budget: budget, Seed: seed, Result: res,
			FoundOptimum:    sameMachine(res.Best, exh.Best),
			SimulationRatio: float64(res.Simulations) / float64(exh.Simulations)}
		report.SmallSpace.Strategies = append(report.SmallSpace.Strategies, entry)
		fmt.Printf("search: %-9s found optimum=%v with %d simulations (%.0f%% of exhaustive), cache-hit %.0f%%\n",
			name, entry.FoundOptimum, res.Simulations, 100*entry.SimulationRatio, 100*res.CacheHitRate)
		if !entry.FoundOptimum {
			return nil, missedOptimum(name, res, exh.Best)
		}
		if entry.SimulationRatio > 0.30 {
			return nil, fmt.Errorf("%s spent %.0f%% of the exhaustive simulation count (criterion: <= 30%%)",
				name, 100*entry.SimulationRatio)
		}
	}

	// Enriched space: thousands of genotypes — policies and both sizing
	// axes in play. A budgeted ACO walk records the trajectory.
	enriched := search.EnrichedSpace(4, 0, wls)
	report.EnrichedSpace.Genotypes = enriched.Size()
	aco, err := runSearch(enriched, "aco", search.Options{Budget: 48, Seed: seed, Sim: searchSim})
	if err != nil {
		return nil, err
	}
	if aco.Best == nil || len(aco.Trajectory) == 0 {
		return nil, fmt.Errorf("enriched ACO run produced no trajectory")
	}
	report.EnrichedSpace.ACO = aco
	fmt.Printf("search: enriched space (%d genotypes) ACO best %s (IPC/mm² %.5f) after %d evaluations\n",
		enriched.Size(), aco.Best.Name(), aco.Best.Metric("per_area"), aco.Evaluations)
	return report, nil
}
