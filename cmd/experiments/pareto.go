package main

import (
	"context"
	"fmt"
	"strings"

	"hdsmt/internal/pareto"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// seedEntry is one strategy's simulations-to-optimum record on the small
// space, comparing the ROADMAP's area-normalized issue-width prior against
// the uniform baseline. With one workload on a cold engine, a charged
// evaluation is exactly one executed simulation, so EvalsToOptimum is the
// simulations-to-optimum figure.
type seedEntry struct {
	Strategy     string `json:"strategy"`
	Seeded       bool   `json:"seeded"`
	Budget       int    `json:"budget"`
	Seed         int64  `json:"seed"`
	FoundOptimum bool   `json:"found_optimum"`
	// EvalsToOptimum is the evaluation at which the exhaustive optimum
	// became the incumbent (0 when missed).
	EvalsToOptimum int            `json:"evals_to_optimum"`
	Simulations    uint64         `json:"simulations"`
	Result         *search.Result `json:"result"`
}

// paretoReport is BENCH_PR4.json: the multi-objective front machinery
// exercised end to end — prior-seeded search efficiency on the small
// space, the exhaustive (ipc, area) front of the 6,912-genotype enriched
// space with the scalar optimum pinned onto it, budgeted NSGA-II and
// Pareto-ACO hypervolume trajectories, and per-workload-class
// specialization deltas.
type paretoReport struct {
	Name      string `json:"name"`
	SimBudget uint64 `json:"sim_budget"`
	SimWarmup uint64 `json:"sim_warmup"`

	// Seeding: uniform vs issue-width-prior variants on the small space.
	Seeding struct {
		Workloads  []string    `json:"workloads"`
		Genotypes  int64       `json:"genotypes"`
		Optimum    string      `json:"optimum"` // the exhaustive scalar optimum's name
		Exhaustive int         `json:"exhaustive_evaluations"`
		Entries    []seedEntry `json:"entries"`
	} `json:"seeding"`

	// EnrichedSpace: the exhaustive (ipc, area) front and the budgeted
	// multi-objective strategies on the space exhaustive search was built
	// to dwarf.
	EnrichedSpace struct {
		Workloads []string `json:"workloads"`
		Genotypes int64    `json:"genotypes"`
		// FrontObjectives are the exhaustive front's axes; the budgeted
		// nsga2/paco runs use StrategyObjectives (fairness included), so
		// their hypervolumes are 3-D and not comparable to the front's.
		FrontObjectives    []string                 `json:"front_objectives"`
		StrategyObjectives []string                 `json:"strategy_objectives"`
		ScalarBest         *search.TrajectoryPoint  `json:"scalar_best"`
		OptimumOnFront     bool                     `json:"optimum_on_front"`
		FrontSize          int                      `json:"front_size"`
		Front              []search.TrajectoryPoint `json:"front"`
		NSGA2              *search.Result           `json:"nsga2"`
		PACO               *search.Result           `json:"paco"`
	} `json:"enriched_space"`

	// Specialization: one machine per workload class vs the generic one,
	// over (ipc, area, fairness).
	Specialization *search.SpecializationReport `json:"specialization"`
}

// genPareto runs the multi-objective benchmark. It fails on any broken
// claim: an empty or mutually dominated front, a hypervolume trajectory
// that falls, the scalar optimum missing from the enriched front, or a
// seeded strategy missing the small-space optimum.
func genPareto(params) (any, error) {
	wls := []workload.Workload{workload.MustByName(searchWorkload)}
	report := paretoReport{Name: "pareto-front", SimBudget: searchSim.Budget, SimWarmup: searchSim.Warmup}

	// ---- Part 1: prior seeding on the small space -----------------------
	small := smallSpace(wls)
	report.Seeding.Workloads = []string{searchWorkload}
	report.Seeding.Genotypes = small.Size()

	exh, err := exhaustiveOptimum(small)
	if err != nil {
		return nil, err
	}
	report.Seeding.Optimum = exh.Best.Name()
	report.Seeding.Exhaustive = exh.Evaluations
	budget := exh.Evaluations * 30 / 100
	fmt.Printf("pareto: small-space optimum %s after %d exhaustive evaluations; strategy budget %d\n",
		exh.Best.Name(), exh.Evaluations, budget)

	for _, name := range []string{"hillclimb", "hillclimb-seeded", "aco", "aco-seeded"} {
		res, err := runSearch(small, name, search.Options{Budget: budget, Seed: seed, Sim: searchSim})
		if err != nil {
			return nil, err
		}
		entry := seedEntry{Strategy: name, Seeded: strings.HasSuffix(name, "-seeded"),
			Budget: budget, Seed: seed, Simulations: res.Simulations, Result: res}
		if sameMachine(res.Best, exh.Best) {
			entry.FoundOptimum = true
			entry.EvalsToOptimum = res.Best.Evaluations
		}
		report.Seeding.Entries = append(report.Seeding.Entries, entry)
		fmt.Printf("pareto: %-18s optimum=%v after %d evaluations (%d simulations)\n",
			name, entry.FoundOptimum, entry.EvalsToOptimum, res.Simulations)
		if !entry.FoundOptimum {
			return nil, missedOptimum(name, res, exh.Best)
		}
	}

	// ---- Part 2: the enriched-space front -------------------------------
	enriched := search.EnrichedSpace(4, 0, wls)
	report.EnrichedSpace.Workloads = []string{searchWorkload}
	report.EnrichedSpace.Genotypes = enriched.Size()
	ipcArea, err := pareto.Parse("ipc,area")
	if err != nil {
		return nil, err
	}
	threeObjs, err := pareto.Parse("ipc,area,fairness")
	if err != nil {
		return nil, err
	}
	report.EnrichedSpace.FrontObjectives = pareto.Keys(ipcArea)
	report.EnrichedSpace.StrategyObjectives = pareto.Keys(threeObjs)

	// One shared runner: the scalar pass simulates every candidate once,
	// the multi-objective pass re-reads the same results from the engine.
	runner, err := sim.NewRunner(obsEngineOptions(0))
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	drv := search.NewDriver(runner)
	scalar, err := drv.Search(context.Background(), enriched, search.Exhaustive{}, search.Options{Sim: searchSim, Telemetry: obs.reg})
	if err != nil {
		return nil, err
	}
	if scalar.Best == nil {
		return nil, fmt.Errorf("enriched exhaustive search found no feasible machine")
	}
	report.EnrichedSpace.ScalarBest = scalar.Best
	mo, err := drv.Search(context.Background(), enriched, search.Exhaustive{}, search.Options{
		Sim: searchSim, Objectives: ipcArea, ArchiveCap: 1 << 12, Telemetry: obs.reg,
	})
	if err != nil {
		return nil, err
	}
	if mo.Simulations != 0 {
		return nil, fmt.Errorf("multi-objective pass executed %d fresh simulations, want 0 (warm engine)", mo.Simulations)
	}
	if len(mo.Front) == 0 {
		return nil, fmt.Errorf("enriched exhaustive front is empty")
	}
	report.EnrichedSpace.FrontSize = len(mo.Front)
	report.EnrichedSpace.Front = mo.Front
	for i := range mo.Front {
		if sameMachine(&mo.Front[i], scalar.Best) {
			report.EnrichedSpace.OptimumOnFront = true
		}
	}
	if !report.EnrichedSpace.OptimumOnFront {
		return nil, fmt.Errorf("scalar optimum %s missing from the %d-point enriched front",
			scalar.Best.Name(), len(mo.Front))
	}
	if err := search.CheckFront(ipcArea, mo.Front); err != nil {
		return nil, err
	}
	fmt.Printf("pareto: enriched space (%d genotypes): %d-point (ipc, area) front; scalar optimum %s on it\n",
		enriched.Size(), len(mo.Front), scalar.Best.Name())

	// Budgeted multi-objective strategies on fresh engines, over the full
	// three objectives (fairness prices its alone-run baselines in).
	moOpts := search.Options{Budget: 48, Seed: seed, Sim: searchSim, Objectives: threeObjs}
	if report.EnrichedSpace.NSGA2, err = frontSearch(enriched, "nsga2", moOpts); err != nil {
		return nil, err
	}
	if report.EnrichedSpace.PACO, err = frontSearch(enriched, "paco", moOpts); err != nil {
		return nil, err
	}

	// ---- Part 3: per-workload-class specialization ----------------------
	classWls := []workload.Workload{
		workload.MustByName("2W1"), // ILP
		workload.MustByName("2W4"), // MEM
		workload.MustByName("2W7"), // MIX
	}
	spec := search.NewSpace(3, 0, classWls)
	specRunner, err := sim.NewRunner(obsEngineOptions(0))
	if err != nil {
		return nil, err
	}
	defer specRunner.Close()
	rep, err := search.NewDriver(specRunner).Specialize(context.Background(), spec, search.NSGA2{},
		search.Options{Budget: 16, Seed: seed, Sim: searchSim, Objectives: threeObjs, Telemetry: obs.reg})
	if err != nil {
		return nil, err
	}
	if len(rep.Classes) != 3 {
		return nil, fmt.Errorf("specialization covered %d classes, want 3", len(rep.Classes))
	}
	report.Specialization = rep
	for _, cf := range rep.Classes {
		if cf.Result.Best == nil {
			return nil, fmt.Errorf("%s specialized search found no feasible machine", cf.Class)
		}
		gen := "(infeasible)"
		if cf.GenericBest != nil {
			gen = fmt.Sprintf("generic %s IPC/mm² %.5f", cf.GenericBest.Name(), cf.GenericBest.Metric("per_area"))
		}
		fmt.Printf("pareto: %s specialized %s IPC/mm² %.5f vs %s (%+.1f%%)\n",
			cf.Class, cf.Result.Best.Name(), cf.Result.Best.Metric("per_area"), gen, 100*cf.PerAreaGain)
	}
	return report, nil
}
