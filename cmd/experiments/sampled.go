package main

import (
	"fmt"

	"hdsmt/internal/core"
	"hdsmt/internal/perf"
	"hdsmt/internal/sim"
)

// The sampled-simulation benchmark (BENCH_PR10.json): the perf basket —
// the flagship heterogeneous configuration under its HEUR mappings, one
// workload per class — simulated once exactly and once in sampled mode
// over the same instruction coverage, comparing the estimate against the
// ground truth. The pinned report carries only deterministic quantities
// (IPCs, margins, errors); wall-clock throughput is machine-dependent and
// is printed to stdout instead, like the load generator's latency numbers
// in BENCH_PR8. The harness enforces the acceptance criteria itself, so
// the CI step is a real check: every estimate within its own reported 95%
// interval, worst error ≤ maxErrorPct, measured speedup ≥ minSpeedup.
const (
	// sampledBudget is the measured instructions per thread of the sampled
	// run; units = ceil(budget/Detail) intervals cover units×Period
	// instructions of every thread's stream, and the exact run measures
	// that same coverage.
	sampledBudget = 600_000

	maxErrorPct = 3.0
	minSpeedup  = 10.0
)

// sampledCellEntry compares one workload cell's sampled estimate against
// its exact ground truth.
type sampledCellEntry struct {
	Workload   string  `json:"workload"`
	ExactIPC   float64 `json:"exact_ipc"`
	SampledIPC float64 `json:"sampled_ipc"`
	// IPCMoE is the sampled run's own reported 95% margin of error.
	IPCMoE   float64 `json:"ipc_moe_95"`
	ErrorPct float64 `json:"error_pct"`
	// WithinCI: |sampled − exact| ≤ IPCMoE — the interval kept its promise.
	WithinCI bool `json:"within_ci"`
	Units    int  `json:"units"`
}

// sampledReport is BENCH_PR10.json. Every field is deterministic: two
// generations on any machine produce identical bytes.
type sampledReport struct {
	Name      string   `json:"name"`
	Config    string   `json:"config"`
	Workloads []string `json:"workloads"`

	Period uint64 `json:"period"`
	Detail uint64 `json:"detail"`
	Warm   uint64 `json:"warm"`
	// MeasuredPerThread is the sampled run's measured-instruction budget;
	// CoveredPerThread the stream coverage both runs share.
	MeasuredPerThread uint64 `json:"measured_per_thread"`
	CoveredPerThread  uint64 `json:"covered_per_thread"`
	// DetailedFraction is the detailed-pipeline share of the covered
	// stream, (Warm+Detail)/Period — the lower bound on achievable speedup
	// is roughly its inverse.
	DetailedFraction float64 `json:"detailed_fraction"`

	Cells       []sampledCellEntry `json:"cells"`
	MaxErrorPct float64            `json:"max_error_pct"`
	AllWithinCI bool               `json:"all_within_ci"`

	Criteria struct {
		MaxErrorPct float64 `json:"max_error_pct"`
		MinSpeedup  float64 `json:"min_speedup"`
	} `json:"criteria"`
}

// genSampled runs the basket exactly and sampled and returns the
// deterministic comparison, or an error if any acceptance criterion (error
// bound, interval coverage, wall-clock speedup) does not hold.
func genSampled(p params) (any, error) {
	b, err := newBasket()
	if err != nil {
		return nil, err
	}
	sp := core.DefaultSampleParams()
	units := (sampledBudget + sp.Detail - 1) / sp.Detail
	covered := units * sp.Period

	// Both passes cover units×Period instructions of the leading thread's
	// stream from the same cold start — the sampled run estimates the exact
	// run, transient included, not an idealized steady state. They
	// alternate repetition by repetition, so a busy spell on the host
	// slows both instead of moving their ratio; each keeps its fastest
	// pass.
	var (
		exact, sampled         []core.Results
		exactWall, sampledWall float64
	)
	for rep := 0; rep < p.reps; rep++ {
		e, ew, _, err := b.pass(sim.Run, sim.Options{Budget: covered}, 1)
		if err != nil {
			return nil, err
		}
		s, sw, _, err := b.pass(sim.Run, sim.Options{Budget: sampledBudget, Sample: sp}, 1)
		if err != nil {
			return nil, err
		}
		if rep == 0 || ew < exactWall {
			exactWall = ew
		}
		if rep == 0 || sw < sampledWall {
			sampledWall = sw
		}
		exact, sampled = e, s
	}

	report := sampledReport{
		Name:              b.name("sampled-HEUR"),
		Config:            perf.BasketConfig,
		Workloads:         perf.BasketWorkloads(),
		Period:            sp.Period,
		Detail:            sp.Detail,
		Warm:              sp.Warm,
		MeasuredPerThread: sampledBudget,
		CoveredPerThread:  covered,
		DetailedFraction:  float64(sp.Warm+sp.Detail) / float64(sp.Period),
		AllWithinCI:       true,
	}
	report.Criteria.MaxErrorPct = maxErrorPct
	report.Criteria.MinSpeedup = minSpeedup

	var exactInstr uint64
	for i, c := range b.cells {
		e, s := exact[i], sampled[i]
		for _, n := range e.Committed {
			exactInstr += n
		}
		entry := sampledCellEntry{
			Workload:   c.w.Name,
			ExactIPC:   e.IPC,
			SampledIPC: s.IPC,
			IPCMoE:     s.Sampled.IPCMoE,
			ErrorPct:   100 * abs(s.IPC-e.IPC) / e.IPC,
			WithinCI:   abs(s.IPC-e.IPC) <= s.Sampled.IPCMoE,
			Units:      s.Sampled.Units,
		}
		report.Cells = append(report.Cells, entry)
		if entry.ErrorPct > report.MaxErrorPct {
			report.MaxErrorPct = entry.ErrorPct
		}
		report.AllWithinCI = report.AllWithinCI && entry.WithinCI
		fmt.Printf("sampled: %-4s exact %.4f  sampled %.4f ±%.4f  error %.2f%%  within-CI %v  (%d units)\n",
			c.w.Name, entry.ExactIPC, entry.SampledIPC, entry.IPCMoE, entry.ErrorPct, entry.WithinCI, entry.Units)
	}

	// Simulated MIPS: instructions of the target (exact) run per wall
	// second — the sampled run estimates the same run, so both passes share
	// the numerator and the ratio is the harvest of sampling.
	exactMIPS := float64(exactInstr) / exactWall / 1e6
	sampledMIPS := float64(exactInstr) / sampledWall / 1e6
	speedup := exactWall / sampledWall
	fmt.Printf("sampled: exact %8.3f MIPS   sampled %8.3f MIPS   speedup %.1fx  (detailed fraction %.3f)\n",
		exactMIPS, sampledMIPS, speedup, report.DetailedFraction)

	if report.MaxErrorPct > maxErrorPct {
		return nil, fmt.Errorf("worst IPC error %.2f%% exceeds the %.1f%% criterion", report.MaxErrorPct, maxErrorPct)
	}
	if !report.AllWithinCI {
		return nil, fmt.Errorf("a sampled estimate fell outside its own reported 95%% interval")
	}
	if speedup < minSpeedup {
		return nil, fmt.Errorf("measured speedup %.1fx is below the %.0fx criterion", speedup, minSpeedup)
	}
	return report, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
