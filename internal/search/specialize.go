package search

import (
	"context"
	"fmt"
	"sort"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/fetch"
	"hdsmt/internal/metrics"
	"hdsmt/internal/workload"
)

// Per-workload specialization (ROADMAP): instead of one machine serving
// every workload class, search one machine per class (ILP/MEM/MIX) and
// compare each specialized front against the single generic machine. The
// class searches run through the same engine as the generic search, so a
// candidate both walks visit is simulated once — the specialized searches
// are nearly free after the generic one.

// ClassFront is one workload class's specialized search and its comparison
// against the generic machine.
type ClassFront struct {
	// Class is the workload class ("ILP", "MEM", "MIX").
	Class string `json:"class"`
	// Workloads is the class's evaluation subset.
	Workloads []string `json:"workloads"`
	// Result is the class-specialized search (front, trajectory, costs).
	Result *Result `json:"result"`
	// GenericBest is the generic search's scalar incumbent re-scored on
	// this class's workloads — what the one-machine design delivers here.
	GenericBest *TrajectoryPoint `json:"generic_best,omitempty"`
	// PerAreaGain is the relative IPC/mm² improvement of the specialized
	// incumbent over the generic machine on this class
	// (metrics.Improvement; +0.13 = 13% better).
	PerAreaGain float64 `json:"per_area_gain"`
}

// SpecializationReport compares per-class specialized searches against one
// generic search over the union workload set. It marshals
// deterministically, like Result.
type SpecializationReport struct {
	Strategy string `json:"strategy"`
	// Generic is the search over every workload at once — the paper's
	// one-machine-for-everything design point.
	Generic *Result `json:"generic"`
	// Classes holds one specialized search per workload class present, in
	// ILP/MEM/MIX order.
	Classes []ClassFront `json:"classes"`
}

// Specialize runs st over sp once on the full workload set, then once per
// workload class present in it (same strategy, seed and budget; the class
// subset replaces the workload list), and scores the generic incumbent on
// each class for comparison. All runs share the driver's engine, so
// overlapping candidate visits cost one simulation.
func (d *Driver) Specialize(ctx context.Context, sp Space, st Strategy, opts Options) (*SpecializationReport, error) {
	generic, err := d.Search(ctx, sp, st, opts)
	if err != nil {
		return nil, fmt.Errorf("search: generic run: %w", err)
	}
	report := &SpecializationReport{Strategy: st.Name(), Generic: generic}

	byClass := map[workload.Type][]workload.Workload{}
	for _, w := range sp.Workloads {
		byClass[w.Type] = append(byClass[w.Type], w)
	}
	for _, t := range workload.Types() {
		wls := byClass[t]
		if len(wls) == 0 {
			continue
		}
		clsSpace := sp
		clsSpace.Workloads = wls
		res, err := d.Search(ctx, clsSpace, st, opts)
		if err != nil {
			return nil, fmt.Errorf("search: %s run: %w", t, err)
		}
		cf := ClassFront{Class: t.String(), Result: res}
		for _, w := range wls {
			cf.Workloads = append(cf.Workloads, w.Name)
		}
		sort.Strings(cf.Workloads)
		if generic.Best != nil {
			gb, err := d.scorePoint(ctx, &clsSpace, *generic.Best, opts)
			if err != nil {
				return nil, fmt.Errorf("search: scoring generic best on %s: %w", t, err)
			}
			cf.GenericBest = gb
			if res.Best != nil && gb != nil && gb.Metric("per_area") > 0 {
				cf.PerAreaGain = metrics.Improvement(res.Best.Metric("per_area"), gb.Metric("per_area"))
			}
		}
		report.Classes = append(report.Classes, cf)
	}
	return report, nil
}

// scorePoint re-evaluates a recorded machine on a space's workload set by
// round-tripping its canonical name through config.Parse and running the
// driver's own evaluation path (fairness included when the options ask) —
// every simulation goes through the engine, so a machine the class search
// already visited costs nothing. Returns nil when the machine cannot hold
// a workload of the set (context-infeasible).
func (d *Driver) scorePoint(ctx context.Context, sp *Space, tp TrajectoryPoint, opts Options) (*TrajectoryPoint, error) {
	cand, err := candidateFromTrajectory(tp)
	if err != nil {
		return nil, err
	}
	if !sp.FitsWorkloads(cand) {
		return nil, nil
	}
	state := &evalState{
		driver: d, space: sp, opts: opts,
		objs:       opts.Objectives,
		needsAlone: needsAloneRuns(opts.Objectives),
	}
	// Re-scoring is a settling act: always exact, whatever triage policy
	// the original search ran under.
	state.opts.Sample = core.SampleParams{}
	j := job{cand: cand, charge: 0}
	if j.cells, err = state.submitCells(ctx, cand, false); err != nil {
		return nil, err
	}
	sc, err := state.settleJob(ctx, j)
	if err != nil {
		return nil, err
	}
	return &TrajectoryPoint{
		Config: cand.Cfg.Name, Policy: cand.Policy, Values: sc.Values,
	}, nil
}

// candidateFromTrajectory rebuilds the decoded candidate a trajectory or
// front point records: configuration names round-trip through config.Parse
// (scaled suffixes included), and the area is the point's recorded metric.
// The policy must be one a decode records: a known policy other than the
// machine's default, which decodes to "" so that it shares the machine's
// key.
func candidateFromTrajectory(tp TrajectoryPoint) (Candidate, error) {
	cfg, err := config.Parse(tp.Config)
	if err != nil {
		return Candidate{}, err
	}
	if tp.Policy != "" {
		if _, err := fetch.ByName(tp.Policy); err != nil {
			return Candidate{}, err
		}
		if tp.Policy == fetch.ForConfig(cfg.Monolithic).Name() {
			return Candidate{}, fmt.Errorf("search: policy %s is %s's default, which a candidate records as empty", tp.Policy, cfg.Name)
		}
	}
	return Candidate{Cfg: cfg, Policy: tp.Policy, Area: tp.Metric("area")}, nil
}

// Gains lists the report's specialized-vs-generic per-area deltas in class
// order, for quick inspection and tests.
func (r *SpecializationReport) Gains() []float64 {
	out := make([]float64, len(r.Classes))
	for i, c := range r.Classes {
		out[i] = c.PerAreaGain
	}
	return out
}
