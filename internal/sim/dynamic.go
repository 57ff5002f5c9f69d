package sim

import (
	"context"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// DynamicResult reports a dynamic-mapping run next to its static-HEUR
// reference.
type DynamicResult struct {
	StaticIPC  float64
	DynamicIPC float64
	Migrations uint64
	Interval   uint64
}

// RunDynamic runs workload w on cfg twice: once under the static §2.1
// profile-guided mapping, and once under the paper's §7 future-work
// proposal — the same heuristic re-evaluated every interval cycles on
// *observed* per-thread miss counts, migrating threads when the ranking
// changes. Both runs are exact; Migrations counts warm-up migrations too.
func RunDynamic(cfg config.Microarch, w workload.Workload, interval uint64, opt Options) (DynamicResult, error) {
	out := DynamicResult{Interval: interval}
	initial, err := HeuristicMapping(cfg, w)
	if err != nil {
		return out, err
	}
	req := newRequest(cfg, w, initial, opt.Budget, opt.Warmup)
	rs, err := simulate(context.Background(), req)
	if err != nil {
		return out, err
	}
	out.StaticIPC = rs.IPC

	req.Remap = interval
	dyn, err := newProcessor(req)
	if err != nil {
		return out, err
	}
	rd, err := dyn.Run(opt.Budget)
	if err != nil {
		return out, err
	}
	out.DynamicIPC = rd.IPC
	out.Migrations = dyn.Migrations()
	return out, nil
}

// DefaultRemapInterval is a reasonable reconsideration period: long enough
// to amortize the migration drain, short enough to catch phase changes.
const DefaultRemapInterval = 2_048

// heuristicRemapper is the §7 dynamic-mapping rule shared by RunDynamic
// and the engine's Remap request axis: the §2.1 heuristic re-evaluated on
// observed per-thread miss counts, staying put if the heuristic cannot
// produce a mapping (impossible for valid configurations).
func heuristicRemapper(cfg config.Microarch) core.Remapper {
	return func(misses []uint64, current []int) []int {
		m, err := mapping.Heuristic(cfg.ForThreads(len(misses)), misses)
		if err != nil {
			return current
		}
		return m
	}
}
