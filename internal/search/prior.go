package search

import (
	"hdsmt/internal/area"
)

// The ROADMAP's search-space prior: area-normalized issue width is a cheap
// proxy for IPC/mm² — no simulation, just the area model — and the spaces
// here reward it (narrow pipelines buy the most width per mm², and the
// scalar optima are M2-heavy machines). Seeded strategies start from it
// instead of a uniform prior and typically reach the optimum in fewer
// simulations; BENCH_PR4.json records the comparison.

// priorBoost scales how far a model's normalized proxy tilts the initial
// pheromone above the neutral 1.0 trail: the best model starts at
// 1+priorBoost, a model half as area-efficient at 1+priorBoost/2. Strong
// enough to steer the first cohorts, weak enough that evaporation and real
// scores override a misleading prior within a few iterations.
const priorBoost = 2.0

// IssueWidthProxy is the candidate-level prior: summed pipeline issue
// width per mm². It ranks machines without simulating them.
func IssueWidthProxy(c Candidate) float64 {
	if c.Area <= 0 {
		return 0
	}
	return float64(c.Cfg.TotalWidth()) / c.Area
}

// Priors returns the initial pheromone trails derived from the per-model
// proxy: on each pipeline-slot dimension, choosing model m starts at
// 1 + priorBoost·(proxy(m)/maxProxy), "none" and every enriched axis stay
// at the neutral 1.0. The table is indexed like Dims().
func (s *Space) Priors() trails {
	proxies := make([]float64, len(s.Models))
	maxProxy := 0.0
	for i, m := range s.Models {
		b, err := area.SinglePipelineProcessor(m)
		if err != nil || b.Total() <= 0 {
			continue // unknown model: stays neutral
		}
		proxies[i] = float64(m.Width) / b.Total()
		if proxies[i] > maxProxy {
			maxProxy = proxies[i]
		}
	}
	out := uniformTrails(s.Dims())
	if maxProxy > 0 {
		for d := 0; d < s.MaxPipes; d++ {
			for i, p := range proxies {
				out[d][i+1] = 1 + priorBoost*p/maxProxy // choice 0 is "none"
			}
		}
	}
	return out
}
