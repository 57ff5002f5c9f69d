package sim

import (
	"context"
	"fmt"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/fetch"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// Runner executes this package's sweeps on a shared engine.Engine: every
// simulation — heuristic runs, oracle searches, ablation sweeps,
// design-space exploration — is submitted as a content-addressed job, so
// concurrency is bounded in one place and any simulation repeated across
// sweeps (or across re-runs, with a cache directory or journal) is served
// from the memoization store instead of being executed again.
//
// A Runner is the only way to run a sweep: one-shot callers build one and
// Close it; long-lived callers (cmd/hdsmtd, repeated sweeps) share one.
// Single simulations outside the engine (Run, RunReference, RunDynamic,
// Fairness) assemble their processor the same way, through newProcessor.
type Runner struct {
	eng *engine.Engine
}

// NewRunner builds a Runner on a fresh engine. opts.Workers bounds
// concurrent simulations (0 = GOMAXPROCS); CacheDir and JournalPath enable
// the on-disk store and the checkpoint journal.
func NewRunner(opts engine.Options) (*Runner, error) {
	eng, err := engine.New(simulate, opts)
	if err != nil {
		return nil, err
	}
	return &Runner{eng: eng}, nil
}

// Close releases the engine's workers.
func (r *Runner) Close() { r.eng.Close() }

// Stats exposes the engine's hit/miss/executed counters.
func (r *Runner) Stats() engine.Stats { return r.eng.Stats() }

// Accepting reports whether the underlying engine still takes
// submissions; /readyz keys off it.
func (r *Runner) Accepting() bool { return r.eng.Accepting() }

// Engine returns the underlying engine (for direct Submit access).
func (r *Runner) Engine() *engine.Engine { return r.eng }

// testCoreOptions, when non-empty, is appended to every simulation's
// processor options. Equivalence tests use it to force the reference
// stepping path (core.WithReferenceStepping) under entire sweeps.
var testCoreOptions []core.Option

// newProcessor assembles the processor one request describes: its
// workload's threads on its configuration under its mapping, with the
// request's warm-up, fetch-policy override and dynamic-remap interval,
// then any extra options. It is the package's only core.New call, so every
// entry point builds a simulation the same way.
func newProcessor(req engine.Request, extra ...core.Option) (*core.Processor, error) {
	specs, err := Specs(req.Workload)
	if err != nil {
		return nil, err
	}
	opts := append([]core.Option{}, testCoreOptions...)
	if req.Warmup > 0 {
		opts = append(opts, core.WithWarmup(req.Warmup))
	}
	if req.Policy != "" {
		pol, err := policyByName(req.Policy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithPolicy(pol))
	}
	if req.Remap > 0 {
		opts = append(opts, core.WithDynamicMapping(req.Remap, heuristicRemapper(req.Cfg)))
	}
	return core.New(req.Cfg, specs, req.Mapping, append(opts, extra...)...)
}

// simulate is the engine's runner function: it executes one request with
// the core simulator, sampled when the request carries sampling
// parameters. It is deterministic — a requirement of the engine's
// memoization — because the core is (fixed seeds, no wall-clock input).
func simulate(ctx context.Context, req engine.Request) (core.Results, error) {
	if err := ctx.Err(); err != nil {
		return core.Results{}, err
	}
	p, err := newProcessor(req)
	if err != nil {
		return core.Results{}, err
	}
	if sp := req.Sample(); sp.Enabled() {
		return p.RunSampled(req.Budget, sp)
	}
	return p.Run(req.Budget)
}

// defaultPolicyName is the policy core.New picks when none is overridden,
// so callers can avoid keying the default policy explicitly.
func defaultPolicyName(cfg config.Microarch) string {
	return fetch.ForConfig(cfg.Monolithic).Name()
}

// policyByName resolves a fetch.Policy from its Name().
func policyByName(name string) (fetch.Policy, error) {
	p, err := fetch.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return p, nil
}

// newRequest assembles the engine job for one simulation. The
// configuration is normalized with ForThreads (idempotent) so every
// caller keys the same simulation identically — the core applies the same
// stretch internally, and a divergent key would defeat cross-sweep
// memoization for monolithic cells.
func newRequest(cfg config.Microarch, w workload.Workload, m mapping.Mapping, budget, warmup uint64) engine.Request {
	return engine.Request{
		Cfg:      cfg.ForThreads(w.Threads()),
		Workload: w,
		Mapping:  m,
		Budget:   budget,
		Warmup:   warmup,
	}
}

// withSample stamps sampling parameters onto a request when opt enables
// sampled execution; the exact path leaves the request — and its cache key —
// untouched.
func withSample(req engine.Request, opt Options) engine.Request {
	if opt.Sample.Enabled() {
		req.SamplePeriod = opt.Sample.Period
		req.SampleDetail = opt.Sample.Detail
		req.SampleWarm = opt.Sample.Warm
	}
	return req
}

// NewRequest assembles the engine job for one design point: cfg on w under
// the default (§2.1 heuristic) mapping, with an optional fetch-policy
// override and an optional dynamic-remap interval. A policy equal to the
// configuration's default is normalized to "" and a remap interval on a
// monolithic configuration (where migration is meaningless) to 0, so
// equivalent points share one cache key. Design-space searchers build
// their evaluation batches from it and submit via Engine().
func NewRequest(cfg config.Microarch, w workload.Workload, opt Options, policy string, remap uint64) (engine.Request, error) {
	if policy != "" {
		if _, err := policyByName(policy); err != nil {
			return engine.Request{}, err
		}
	}
	m, err := DefaultMapping(cfg, w)
	if err != nil {
		return engine.Request{}, err
	}
	req := withSample(newRequest(cfg, w, m, opt.Budget, opt.Warmup), opt)
	if policy != "" && policy != defaultPolicyName(cfg) {
		req.Policy = policy
	}
	if remap > 0 && !cfg.Monolithic {
		req.Remap = remap
	}
	return req, nil
}

// Run simulates one (configuration, workload, mapping) cell through the
// engine, so repeated runs hit the cache. Like the package-level Run it is
// sampled when opt.Sample is enabled.
func (r *Runner) Run(ctx context.Context, cfg config.Microarch, w workload.Workload, m mapping.Mapping, opt Options) (core.Results, error) {
	req := withSample(newRequest(cfg, w, m, opt.Budget, opt.Warmup), opt)
	results, err := r.eng.RunBatch(ctx, []engine.Request{req})
	if err != nil {
		return core.Results{}, err
	}
	return results[0], nil
}

// Evaluate produces the Measurement for one configuration and workload:
// monolithic configurations need no mapping (a single measurement serves
// all three series, as in the paper); multipipeline configurations run the
// heuristic mapping at full budget and exhaustively search all distinct
// mappings for BEST/WORST. All simulations fan out through the engine.
func (r *Runner) Evaluate(ctx context.Context, cfg config.Microarch, w workload.Workload, opt Options) (Measurement, error) {
	ms, err := r.EvaluateAll(ctx, []SweepCell{{Cfg: cfg, W: w}}, opt, nil)
	if err != nil {
		return Measurement{Config: cfg.Name, Workload: w.Name}, err
	}
	return ms[0], nil
}

// SweepCell is one (configuration, workload) evaluation of a sweep.
type SweepCell struct {
	Cfg config.Microarch
	W   workload.Workload
}

// EvaluateAll evaluates every cell through one engine batch: all cells'
// simulations — heuristic runs and oracle searches alike — are submitted
// up front, so the worker pool stays saturated across cell boundaries
// (a lone monolithic cell cannot serialize the sweep). Cells finish in
// input order; progress, when non-nil, is called after each completed
// cell with the count done so far.
func (r *Runner) EvaluateAll(ctx context.Context, cells []SweepCell, opt Options, progress func(done int)) ([]Measurement, error) {
	plans := make([]*evalPlan, len(cells))
	offsets := make([]int, len(cells))
	var tickets []*engine.Ticket
	for i, c := range cells {
		p, err := planEvaluate(c.Cfg, c.W, opt)
		if err != nil {
			return nil, fmt.Errorf("sim: %s on %s: %w", c.W.Name, c.Cfg.Name, err)
		}
		plans[i] = p
		offsets[i] = len(tickets)
		for _, req := range p.reqs {
			tk, err := r.eng.Submit(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("sim: submitting %s: %w", req, err)
			}
			tickets = append(tickets, tk)
		}
	}

	out := make([]Measurement, len(cells))
	for i, p := range plans {
		results := make([]core.Results, len(p.reqs))
		for k := range p.reqs {
			res, err := tickets[offsets[i]+k].Wait(ctx)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: %w", p.reqs[k], err)
			}
			results[k] = res
		}
		out[i] = p.finish(results)
		if progress != nil {
			progress(i + 1)
		}
	}
	return out, nil
}
