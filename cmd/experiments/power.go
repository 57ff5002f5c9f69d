package main

import (
	"context"
	"fmt"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/metrics"
	"hdsmt/internal/pareto"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// machineEnergy is one evaluated microarchitecture's energy accounting on
// the baseline workload: the activity-priced dynamic + leakage energy per
// instruction and the derived ED/ED² figures.
type machineEnergy struct {
	Config  string  `json:"config"`
	AreaMM2 float64 `json:"area_mm2"`
	IPC     float64 `json:"ipc"`
	// EPI is nJ per committed instruction; ED and ED2 the energy-delay and
	// energy-delay² products (EPI/IPC, EPI/IPC²).
	EPI float64 `json:"epi_nj"`
	ED  float64 `json:"ed"`
	ED2 float64 `json:"ed2"`
	// DynamicPJ/LeakagePJ split the run's total; Units decomposes the
	// dynamic energy by unit.
	DynamicPJ float64        `json:"dynamic_pj"`
	LeakagePJ float64        `json:"leakage_pj"`
	Units     metrics.Values `json:"units"`
}

// powerReport is BENCH_PR5.json: the activity-based power model end to end
// — the per-unit energy table, the six evaluated machines' EPI/ED/ED²
// baseline, the exhaustive 4-objective (ipc, area, fairness, energy) front
// with its Monte-Carlo hypervolume and the ED/ED² incumbents read off it,
// and budgeted NSGA-II/PACO hypervolume trajectories over the enriched
// space. Fixed seeds and the deterministic-seed Monte-Carlo estimator make
// the file byte-identical across invocations.
type powerReport struct {
	Name      string `json:"name"`
	SimBudget uint64 `json:"sim_budget"`
	SimWarmup uint64 `json:"sim_warmup"`
	Full      bool   `json:"full"`

	// EnergyModel echoes the per-access energy table the report was priced
	// with.
	EnergyModel config.EnergyModel `json:"energy_model"`

	// Baseline prices the paper's six evaluated configurations on the
	// baseline workload under the heuristic mapping.
	Baseline struct {
		Workload string          `json:"workload"`
		Machines []machineEnergy `json:"machines"`
	} `json:"baseline"`

	// FourObjective is the exhaustive front over (ipc, area, fairness,
	// energy): the many-objective result the Monte-Carlo hypervolume
	// estimator unlocks. EDIncumbent/ED2Incumbent are the front members
	// minimizing the derived ED/ED² metrics — ED-optimal machines are
	// Pareto-optimal in (ipc, energy), so with an unpruned archive the
	// front provably contains them.
	FourObjective struct {
		Workloads     []string                 `json:"workloads"`
		Genotypes     int64                    `json:"genotypes"`
		Objectives    []string                 `json:"objectives"`
		FrontSize     int                      `json:"front_size"`
		Front         []search.TrajectoryPoint `json:"front"`
		HypervolumeMC float64                  `json:"hypervolume_mc"`
		EDIncumbent   *search.TrajectoryPoint  `json:"ed_incumbent"`
		ED2Incumbent  *search.TrajectoryPoint  `json:"ed2_incumbent"`
	} `json:"four_objective"`

	// EnrichedSpace holds the budgeted 4-objective strategy runs and their
	// hypervolume trajectories.
	EnrichedSpace struct {
		Genotypes int64          `json:"genotypes"`
		NSGA2     *search.Result `json:"nsga2"`
		PACO      *search.Result `json:"paco"`
	} `json:"enriched_space"`
}

// genPower runs the power benchmark. It fails on any broken claim: a
// machine or front member without an energy value, an empty or mutually
// dominated 4-objective front, or a Monte-Carlo hypervolume trajectory
// that falls (the estimator's fixed sampling box rules that out for an
// unpruned archive).
func genPower(p params) (any, error) {
	wls := []workload.Workload{workload.MustByName(searchWorkload)}
	report := powerReport{Name: "power-model", SimBudget: searchSim.Budget, SimWarmup: searchSim.Warmup,
		Full: p.full, EnergyModel: config.DefaultEnergyModel()}

	// ---- Part 1: the six evaluated machines' energy baseline ------------
	report.Baseline.Workload = searchWorkload
	runner, err := sim.NewRunner(obsEngineOptions(0))
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	w := wls[0]
	for _, cfg := range config.EvaluatedMicroarchs() {
		res, err := runner.Run(context.Background(), cfg, w, nil, searchSim)
		if err != nil {
			return nil, err
		}
		eb, err := sim.EnergyOf(cfg.ForThreads(w.Threads()), res)
		if err != nil {
			return nil, err
		}
		if eb.EPI <= 0 {
			return nil, fmt.Errorf("%s EPI = %v, want positive", cfg.Name, eb.EPI)
		}
		a, err := area.Total(cfg)
		if err != nil {
			return nil, err
		}
		vals := metrics.Values{"ipc": res.IPC, "area": a, "energy": eb.EPI}
		metrics.Finalize(vals)
		report.Baseline.Machines = append(report.Baseline.Machines, machineEnergy{
			Config:    cfg.Name,
			AreaMM2:   a,
			IPC:       res.IPC,
			EPI:       eb.EPI,
			ED:        vals["ed"],
			ED2:       vals["ed2"],
			DynamicPJ: eb.DynamicPJ, LeakagePJ: eb.LeakagePJ,
			Units: eb.Units,
		})
		fmt.Printf("power: %-14s %8.2f mm²  IPC %6.3f  EPI %7.2f nJ  ED %8.2f  ED² %9.2f\n",
			cfg.Name, a, res.IPC, eb.EPI, vals["ed"], vals["ed2"])
	}

	// ---- Part 2: the exhaustive 4-objective front -----------------------
	objs, err := pareto.Parse("ipc,area,fairness,energy")
	if err != nil {
		return nil, err
	}
	sp := smallSpace(wls)
	sp.FetchBufScales = []int{75, 100, 125}
	if p.full {
		sp = search.EnrichedSpace(4, 0, wls)
	}
	report.FourObjective.Workloads = []string{searchWorkload}
	report.FourObjective.Genotypes = sp.Size()
	report.FourObjective.Objectives = pareto.Keys(objs)

	exh, err := runSearch(sp, "exhaustive", search.Options{Sim: searchSim, Objectives: objs, ArchiveCap: 1 << 12})
	if err != nil {
		return nil, err
	}
	if len(exh.Front) == 0 {
		return nil, fmt.Errorf("exhaustive 4-objective front is empty")
	}
	if err := search.CheckFront(objs, exh.Front); err != nil {
		return nil, err
	}
	report.FourObjective.FrontSize = len(exh.Front)
	report.FourObjective.Front = exh.Front
	report.FourObjective.HypervolumeMC = pareto.HypervolumeOf(objs, frontVectors(objs, exh.Front))

	for i := range exh.Front {
		fp := &exh.Front[i]
		for _, key := range []string{"energy", "ed", "ed2"} {
			if _, ok := fp.Values[key]; !ok {
				return nil, fmt.Errorf("front member %s has no %s value", fp.Name(), key)
			}
		}
		if report.FourObjective.EDIncumbent == nil || fp.Metric("ed") < report.FourObjective.EDIncumbent.Metric("ed") {
			report.FourObjective.EDIncumbent = fp
		}
		if report.FourObjective.ED2Incumbent == nil || fp.Metric("ed2") < report.FourObjective.ED2Incumbent.Metric("ed2") {
			report.FourObjective.ED2Incumbent = fp
		}
	}
	fmt.Printf("power: %d-genotype space: %d-point (ipc, area, fairness, energy) front, MC hypervolume %.1f\n",
		sp.Size(), len(exh.Front), report.FourObjective.HypervolumeMC)
	fmt.Printf("power: ED incumbent %s (ED %.2f), ED² incumbent %s (ED² %.2f)\n",
		report.FourObjective.EDIncumbent.Name(), report.FourObjective.EDIncumbent.Metric("ed"),
		report.FourObjective.ED2Incumbent.Name(), report.FourObjective.ED2Incumbent.Metric("ed2"))

	// ---- Part 3: budgeted 4-objective strategies on the enriched space --
	enriched := search.EnrichedSpace(4, 0, wls)
	report.EnrichedSpace.Genotypes = enriched.Size()
	budget := 48
	if p.full {
		budget = 128
	}
	// ArchiveCap above any reachable front size: a crowding prune can
	// shrink the dominated region, and assertMonotoneHV would then fail
	// the run (the default 64-member cap is only safe below 64
	// evaluations).
	moOpts := search.Options{Budget: budget, Seed: seed, Sim: searchSim, Objectives: objs, ArchiveCap: 1 << 12}
	if report.EnrichedSpace.NSGA2, err = frontSearch(enriched, "nsga2", moOpts); err != nil {
		return nil, err
	}
	if report.EnrichedSpace.PACO, err = frontSearch(enriched, "paco", moOpts); err != nil {
		return nil, err
	}
	return report, nil
}

// frontVectors extracts the front's raw objective vectors.
func frontVectors(objs []pareto.Objective, front []search.TrajectoryPoint) []pareto.Vector {
	out := make([]pareto.Vector, len(front))
	for i, fp := range front {
		out[i] = fp.ObjectiveVector(objs)
	}
	return out
}
