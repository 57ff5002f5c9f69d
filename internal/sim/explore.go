package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/metrics"
	"hdsmt/internal/workload"
)

// Design-space exploration: the paper evaluates six hand-picked
// configurations; this extension searches the whole space of M6/M4/M2
// multisets under an area budget for the best performance-per-area machine,
// directly operationalizing the paper's goal of "minimizing the amount of
// resources wasted to achieve a given performance rate".

// CandidateConfigs enumerates every multiset of {M6, M4, M2} pipelines with
// between 1 and maxPipes members whose area fits areaCap (0 = no cap),
// plus the monolithic baseline for reference. Results are deterministic,
// ordered by ascending area.
func CandidateConfigs(maxPipes int, areaCap float64) ([]config.Microarch, error) {
	if maxPipes < 1 {
		return nil, fmt.Errorf("sim: maxPipes %d must be at least 1", maxPipes)
	}
	if areaCap < 0 {
		return nil, fmt.Errorf("sim: area cap %v must not be negative (0 = no cap)", areaCap)
	}
	models := []config.Model{config.M6, config.M4, config.M2}
	var out []config.Microarch
	seen := map[string]bool{}

	add := func(cfg config.Microarch) error {
		if seen[cfg.Name] {
			return nil
		}
		a, err := area.Total(cfg)
		if err != nil {
			return err
		}
		if areaCap > 0 && a > areaCap {
			return nil
		}
		seen[cfg.Name] = true
		out = append(out, cfg)
		return nil
	}

	// Multisets via non-decreasing index sequences.
	var rec func(start int, picked []config.Model) error
	rec = func(start int, picked []config.Model) error {
		if len(picked) > 0 {
			if err := add(config.NewMicroarch(picked...)); err != nil {
				return err
			}
		}
		if len(picked) == maxPipes {
			return nil
		}
		for i := start; i < len(models); i++ {
			if err := rec(i, append(picked, models[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil); err != nil {
		return nil, err
	}
	if err := add(config.MustParse("M8")); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf(
			"sim: area cap %.2f mm² filters out every candidate (maxPipes %d); the smallest machine is 1M2 at %.2f mm²",
			areaCap, maxPipes, area.MustTotal(config.MustParse("M2")))
	}

	sort.SliceStable(out, func(i, j int) bool {
		return area.MustTotal(out[i]) < area.MustTotal(out[j])
	})
	return out, nil
}

// ExploreResult scores one candidate over the workload set.
type ExploreResult struct {
	Config  string
	Area    float64
	IPC     float64 // harmonic mean over the workloads, HEUR mapping
	PerArea float64
	Skipped bool // too few hardware contexts for some workload
}

// Explore evaluates every candidate on every workload under the §2.1
// heuristic mapping and ranks by performance per area. Candidates lacking
// contexts for any workload are reported as skipped. Every feasible
// (candidate, workload) run is submitted up front, so the worker pool
// stays saturated across candidate boundaries; candidates then settle in
// input order. progress, when non-nil, is called after each candidate
// settles with the count done so far (skipped candidates count — they are
// decided, just not simulated).
func (r *Runner) Explore(ctx context.Context, wls []workload.Workload, cands []config.Microarch, opt Options, progress func(done int)) ([]ExploreResult, error) {
	if len(wls) == 0 {
		return nil, fmt.Errorf("sim: no workloads to explore over")
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("sim: no candidate configurations to explore (CandidateConfigs or a non-empty candidate list required)")
	}
	out := make([]ExploreResult, 0, len(cands))
	offsets := make([]int, len(cands)) // tickets[offsets[i]:offsets[i+1]] belong to out[i]
	var tickets []*engine.Ticket
	for ci, cfg := range cands {
		res := ExploreResult{Config: cfg.Name, Area: area.MustTotal(cfg)}
		var cellReqs []engine.Request
		for _, w := range wls {
			eff := cfg.ForThreads(w.Threads())
			if eff.TotalContexts() < w.Threads() {
				res.Skipped = true
				break
			}
			m, err := DefaultMapping(eff, w)
			if err != nil {
				return nil, fmt.Errorf("sim: %s/%s: %w", cfg.Name, w.Name, err)
			}
			cellReqs = append(cellReqs, newRequest(eff, w, m, opt.Budget, opt.Warmup))
		}
		offsets[ci] = len(tickets)
		if !res.Skipped {
			for _, req := range cellReqs {
				tk, err := r.eng.Submit(ctx, req)
				if err != nil {
					return nil, fmt.Errorf("sim: submitting %s: %w", req, err)
				}
				tickets = append(tickets, tk)
			}
		}
		out = append(out, res)
	}

	for i := range out {
		end := len(tickets)
		if i+1 < len(out) {
			end = offsets[i+1]
		}
		var ipcs []float64
		for _, tk := range tickets[offsets[i]:end] {
			res, err := tk.Wait(ctx)
			if err != nil {
				return nil, fmt.Errorf("sim: exploring %s: %w", out[i].Config, err)
			}
			ipcs = append(ipcs, res.IPC)
		}
		if !out[i].Skipped {
			out[i].IPC = metrics.HMean(ipcs)
			out[i].PerArea = out[i].IPC / out[i].Area
		}
		if progress != nil {
			progress(i + 1)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Skipped != out[j].Skipped {
			return !out[i].Skipped
		}
		return out[i].PerArea > out[j].PerArea
	})
	return out, nil
}

// RenderExploration formats the ranking.
func RenderExploration(rs []ExploreResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %12s\n", "config", "area mm²", "IPC", "IPC/mm²")
	for _, r := range rs {
		if r.Skipped {
			fmt.Fprintf(&b, "%-16s %10.2f %10s %12s\n", r.Config, r.Area, "-", "(too few contexts)")
			continue
		}
		fmt.Fprintf(&b, "%-16s %10.2f %10.3f %12.5f\n", r.Config, r.Area, r.IPC, r.PerArea)
	}
	return b.String()
}
