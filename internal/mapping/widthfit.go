package mapping

import (
	"fmt"
	"sort"

	"hdsmt/internal/config"
)

// WidthFit is an improved heuristic developed in this reproduction (an
// extension beyond the paper). The §2.1 policy has two measurable
// weaknesses: step 4 dedicates the widest pipeline to
// the cleanest thread even when that strands capacity, and the "adjacent
// threads behave similarly" assumption pairs an ILP thread with a MEM
// thread whenever the sorted miss list crosses the class boundary.
//
// WidthFit instead assigns threads in ascending-miss order to the pipeline
// with the most *effective width per thread* remaining: a thread joins
// pipeline p only when width(p)/(assigned(p)+1) beats every alternative.
// Clean threads therefore spread across wide pipelines before any pipeline
// doubles up, and heavy missers fall to the narrow pipelines last — without
// ever wasting a wide pipeline that could serve two threads better than a
// narrow one serves one.
func WidthFit(cfg config.Microarch, misses []uint64) (Mapping, error) {
	n := len(misses)
	if n == 0 {
		return nil, fmt.Errorf("mapping: no threads")
	}
	if cfg.TotalContexts() < n {
		return nil, fmt.Errorf("mapping: %s has %d contexts for %d threads",
			cfg.Name, cfg.TotalContexts(), n)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return misses[order[a]] < misses[order[b]] })

	out := make(Mapping, n)
	used := make([]int, len(cfg.Pipelines))
	for _, thr := range order {
		best, bestScore := -1, -1.0
		for p := range cfg.Pipelines {
			if used[p] >= cfg.Pipelines[p].Contexts {
				continue
			}
			score := float64(cfg.Pipelines[p].Width) / float64(used[p]+1)
			// Ties break toward the wider pipeline (earlier index, since
			// Microarch pipelines are ordered widest first).
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("mapping: no free context (internal error)")
		}
		out[thr] = best
		used[best]++
	}
	if err := Validate(cfg, out); err != nil {
		return nil, fmt.Errorf("mapping: widthfit produced invalid mapping: %w", err)
	}
	return out, nil
}
