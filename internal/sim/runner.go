package sim

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

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
// Single simulations outside the engine (Run, RunReference, Fairness)
// assemble their processor the same way, through newProcessor;
// runs through simulate (every engine job, Run, Fairness) recycle
// processor storage.
type Runner struct {
	eng *engine.Engine

	// plans holds every cell's plan — its mappings, its requests and their
	// keys — under the key Runner.plan encodes, for as long as the Runner
	// and the engine memo those keys index. A warm evaluate or
	// default-mapping run submits its memo hits without planning the
	// oracle again or hashing a key.
	plansMu sync.Mutex
	plans   map[string]*evalPlan
}

// NewRunner builds a Runner on a fresh engine. opts.Workers bounds
// concurrent simulations (0 = GOMAXPROCS); JournalPath enables the
// checkpoint journal.
func NewRunner(opts engine.Options) (*Runner, error) {
	eng, err := engine.New(simulate, opts)
	if err != nil {
		return nil, err
	}
	return &Runner{eng: eng, plans: map[string]*evalPlan{}}, nil
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
// request's warm-up and fetch-policy override, then any extra options. It reuses old's storage (core.Renew; nil builds
// everything new) and is the package's only call into core construction,
// so every entry point builds a simulation the same way.
func newProcessor(old *core.Processor, req engine.Request, extra ...core.Option) (*core.Processor, error) {
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
	return core.Renew(old, req.Cfg, specs, req.Mapping, append(opts, extra...)...)
}

// Processors whose run is over, for simulate to build the next run's
// processor from. A run then reuses the megabyte of caches, tables,
// buffers and uop records of an earlier one instead of allocating it — for
// a short simulation, most of its allocation and of the garbage collection
// that ran alongside it. core.Renew resets every reused structure to the
// state core.New builds it in, so which processor a run is given changes
// nothing in its Results.
//
// spare holds the last processor put back; processors takes the rest. A
// sync.Pool alone keeps one processor per P and, asked on another P, builds
// a new one, so a single goroutine that moves between Ps (sim.Run in a
// loop, a one-worker engine) would keep several; with spare it keeps one
// and reuses it whichever P it runs on. Concurrent runs overflow into
// processors, which the garbage collector may empty.
var (
	spare      atomic.Pointer[core.Processor]
	processors sync.Pool
)

// simulate is the engine's runner function: it executes one request with
// the core simulator, sampled when the request carries sampling
// parameters. It is deterministic — a requirement of the engine's
// memoization — because the core is (fixed seeds, no wall-clock input).
func simulate(ctx context.Context, req engine.Request) (core.Results, error) {
	if err := ctx.Err(); err != nil {
		return core.Results{}, err
	}
	old := spare.Swap(nil)
	if old == nil {
		old, _ = processors.Get().(*core.Processor)
	}
	p, err := newProcessor(old, req)
	if err != nil {
		return core.Results{}, err
	}
	var r core.Results
	if sp := req.Sample(); sp.Enabled() {
		r, err = p.RunSampled(req.Budget, sp)
	} else {
		r, err = p.Run(req.Budget)
	}
	if !spare.CompareAndSwap(nil, p) {
		processors.Put(p)
	}
	return r, err
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
// override. A policy equal to the configuration's default is normalized to
// "", so equivalent points share one cache key. Design-space searchers build
// their evaluation batches from it and submit via Engine().
func NewRequest(cfg config.Microarch, w workload.Workload, opt Options, policy string) (engine.Request, error) {
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
	return req, nil
}

// Run simulates one (configuration, workload, mapping) cell through the
// engine, so repeated runs hit the cache. A nil m runs the default mapping
// (DefaultMapping), planned and keyed once per Runner. Like the
// package-level Run it is sampled when opt.Sample is enabled.
func (r *Runner) Run(ctx context.Context, cfg config.Microarch, w workload.Workload, m mapping.Mapping, opt Options) (core.Results, error) {
	var req engine.Request
	var key string
	if m == nil {
		p, err := r.plan(runPlan, cfg, w, opt)
		if err != nil {
			return core.Results{}, err
		}
		req, key = p.reqs[0], p.keys[0]
	} else {
		req = withSample(newRequest(cfg, w, m, opt.Budget, opt.Warmup), opt)
		key = req.Key()
	}
	tk, err := r.eng.SubmitKeyed(ctx, req, key)
	if err != nil {
		return core.Results{}, fmt.Errorf("sim: submitting %s: %w", req, err)
	}
	res, err := tk.Wait(ctx)
	if err != nil {
		return core.Results{}, fmt.Errorf("sim: %s: %w", req, err)
	}
	return res, nil
}

// The two kinds of plan a cell has: the BEST/HEUR/WORST batch of
// planEvaluate and the one default-mapping run of planRun.
const (
	evaluatePlan byte = 'e'
	runPlan      byte = 'r'
)

// plan returns the plan of kind for cfg on w under opt, with every
// request's key, planning and keying it on the Runner's first use. The
// cache key is one encoding of all that planning reads — the kind, the
// full configuration, the workload and every Options field — so a plan is
// never shared by inputs it does not fit. The cached plan owns copies of
// cfg's and w's slices, so a caller that later changes its own cannot
// change a plan.
func (r *Runner) plan(kind byte, cfg config.Microarch, w workload.Workload, opt Options) (*evalPlan, error) {
	var buf [1024]byte
	b := engine.Request{Cfg: cfg, Workload: w, Budget: opt.Budget, Warmup: opt.Warmup,
		SamplePeriod: opt.Sample.Period, SampleDetail: opt.Sample.Detail, SampleWarm: opt.Sample.Warm,
	}.AppendJSON(append(buf[:0], kind))
	b = strconv.AppendUint(append(b, ' '), opt.OracleBudget, 10)
	b = strconv.AppendInt(append(b, ' '), int64(opt.MaxOracle), 10)
	r.plansMu.Lock()
	p := r.plans[string(b)]
	r.plansMu.Unlock()
	if p != nil {
		return p, nil
	}

	cfg.Pipelines = slices.Clone(cfg.Pipelines)
	w.Benchmarks = slices.Clone(w.Benchmarks)
	var err error
	if kind == runPlan {
		p, err = planRun(cfg, w, opt)
	} else {
		p, err = planEvaluate(cfg, w, opt)
	}
	if err != nil {
		return nil, err
	}
	p.keys = make([]string, len(p.reqs))
	for i, req := range p.reqs {
		p.keys[i] = req.Key()
	}
	r.plansMu.Lock()
	if q := r.plans[string(b)]; q != nil {
		p = q // planned concurrently: keep the first
	} else {
		r.plans[string(b)] = p
	}
	r.plansMu.Unlock()
	return p, nil
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
		p, err := r.plan(evaluatePlan, c.Cfg, c.W, opt)
		if err != nil {
			return nil, fmt.Errorf("sim: %s on %s: %w", c.W.Name, c.Cfg.Name, err)
		}
		plans[i] = p
		offsets[i] = len(tickets)
		for k, req := range p.reqs {
			tk, err := r.eng.SubmitKeyed(ctx, req, p.keys[k])
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
