package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/metrics"
	"hdsmt/internal/workload"
)

// Cell is one bar triple of Figs. 4/5: the BEST/HEUR/WORST values
// (IPC for Fig. 4, IPC per mm² for Fig. 5) aggregated over a workload
// group by harmonic mean.
type Cell struct {
	Best, Heur, Worst float64
}

// scale returns the cell divided by a constant (area normalization).
func (c Cell) scale(d float64) Cell {
	return Cell{Best: c.Best / d, Heur: c.Heur / d, Worst: c.Worst / d}
}

// FigResult is one sub-figure of Fig. 4 or Fig. 5 (one workload type):
// for every configuration, the per-thread-count group harmonic means plus
// the overall HMEAN column, exactly the bars the paper plots.
type FigResult struct {
	Title   string
	Type    workload.Type
	Configs []string
	Groups  []string // "2 THREADS", "4 THREADS", ["6 THREADS",] "HMEAN"
	// Values[config][group] is the aggregated cell.
	Values map[string]map[string]Cell
	// PerWorkload[config][workload] holds the raw per-workload
	// measurements behind the aggregation.
	PerWorkload map[string]map[string]Measurement
}

// groupLabel formats a thread-count group header as the figure does.
func groupLabel(n int) string { return fmt.Sprintf("%d THREADS", n) }

// groupsFor lists the thread-count groups populated for a workload type
// (MEM has no 6-thread workloads) plus the overall HMEAN.
func groupsFor(t workload.Type) []string {
	var gs []string
	for _, n := range workload.ThreadCounts() {
		if len(workload.Select(n, t)) > 0 {
			gs = append(gs, groupLabel(n))
		}
	}
	return append(gs, "HMEAN")
}

// RunFigure computes the Fig. 4 sub-figure (IPC) for one workload type
// across all six evaluated microarchitectures. Fig. 5's per-area variant
// derives from the same measurements via PerArea. Every cell's heuristic
// run and oracle search is planned up front and submitted as one batch, so
// the engine's worker pool is the only fan-out and its cache deduplicates
// cells shared with earlier sweeps.
func (r *Runner) RunFigure(ctx context.Context, t workload.Type, opt Options) (FigResult, error) {
	configs := config.EvaluatedMicroarchs()
	fig := FigResult{
		Title:       fmt.Sprintf("Fig. 4: IPC, %s workloads", t),
		Type:        t,
		Groups:      groupsFor(t),
		Values:      map[string]map[string]Cell{},
		PerWorkload: map[string]map[string]Measurement{},
	}
	var wls []workload.Workload
	for _, n := range workload.ThreadCounts() {
		wls = append(wls, workload.Select(n, t)...)
	}

	var cells []SweepCell
	for _, cfg := range configs {
		fig.Configs = append(fig.Configs, cfg.Name)
		for _, w := range wls {
			cells = append(cells, SweepCell{Cfg: cfg, W: w})
		}
	}

	ms, err := r.EvaluateAll(ctx, cells, opt, nil)
	if err != nil {
		return fig, err
	}
	for i, m := range ms {
		cfgName := cells[i].Cfg.Name
		if fig.PerWorkload[cfgName] == nil {
			fig.PerWorkload[cfgName] = map[string]Measurement{}
		}
		fig.PerWorkload[cfgName][m.Workload] = m
	}

	// Aggregate harmonic means per group.
	for _, cfg := range configs {
		fig.Values[cfg.Name] = map[string]Cell{}
		var allBest, allHeur, allWorst []float64
		for _, n := range workload.ThreadCounts() {
			group := workload.Select(n, t)
			if len(group) == 0 {
				continue
			}
			var bs, hs, ws []float64
			for _, w := range group {
				m := fig.PerWorkload[cfg.Name][w.Name]
				bs = append(bs, m.Best)
				hs = append(hs, m.Heur)
				ws = append(ws, m.Worst)
			}
			fig.Values[cfg.Name][groupLabel(n)] = Cell{
				Best:  metrics.HMean(bs),
				Heur:  metrics.HMean(hs),
				Worst: metrics.HMean(ws),
			}
			allBest = append(allBest, bs...)
			allHeur = append(allHeur, hs...)
			allWorst = append(allWorst, ws...)
		}
		fig.Values[cfg.Name]["HMEAN"] = Cell{
			Best:  metrics.HMean(allBest),
			Heur:  metrics.HMean(allHeur),
			Worst: metrics.HMean(allWorst),
		}
	}
	return fig, nil
}

// PerArea converts a Fig. 4 result into its Fig. 5 counterpart by dividing
// every series by the configuration's area (a constant per configuration,
// so harmonic means divide through exactly).
func (f FigResult) PerArea() (FigResult, error) {
	out := f
	out.Title = strings.Replace(f.Title, "Fig. 4: IPC", "Fig. 5: IPC/mm²", 1)
	out.Values = map[string]map[string]Cell{}
	for _, cfgName := range f.Configs {
		a, err := area.Total(config.MustParse(cfgName))
		if err != nil {
			return out, err
		}
		out.Values[cfgName] = map[string]Cell{}
		for g, cell := range f.Values[cfgName] {
			out.Values[cfgName][g] = cell.scale(a)
		}
	}
	return out, nil
}

// Render formats the figure as an aligned text table, one row per
// configuration, BEST/HEUR/WORST columns per group.
func (f FigResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-14s", "config")
	for _, g := range f.Groups {
		fmt.Fprintf(&b, " | %-26s", g)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s", "")
	for range f.Groups {
		fmt.Fprintf(&b, " | %8s %8s %8s", "BEST", "HEUR", "WORST")
	}
	b.WriteByte('\n')
	for _, cfg := range f.Configs {
		fmt.Fprintf(&b, "%-14s", cfg)
		for _, g := range f.Groups {
			c := f.Values[cfg][g]
			fmt.Fprintf(&b, " | %8.4f %8.4f %8.4f", c.Best, c.Heur, c.Worst)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderPerWorkload lists the raw per-workload measurements sorted by
// workload name, for the per-experiment appendix.
func (f FigResult) RenderPerWorkload() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — per-workload detail\n", f.Title)
	for _, cfg := range f.Configs {
		names := make([]string, 0, len(f.PerWorkload[cfg]))
		for n := range f.PerWorkload[cfg] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := f.PerWorkload[cfg][n]
			fmt.Fprintf(&b, "  %-12s %-4s best=%.4f heur=%.4f worst=%.4f (%d mappings, heur %v)\n",
				cfg, n, m.Best, m.Heur, m.Worst, m.Mappings, m.HeurMapping)
		}
	}
	return b.String()
}
