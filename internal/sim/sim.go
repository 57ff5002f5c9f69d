// Package sim is the experiment harness: it assembles processors for the
// paper's workloads (Tables 2-3) and microarchitectures (Fig. 3), runs the
// BEST/HEUR/WORST measurements of §5, and aggregates them into the series
// of Figs. 4 and 5 plus the headline summary numbers.
package sim

import (
	"context"
	"fmt"
	"sync"

	"hdsmt/internal/bench"
	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/mapping"
	"hdsmt/internal/trace"
	"hdsmt/internal/workload"
)

// Options scales the simulation. The paper runs 300M instructions per
// thread; the default here is a laptop-scale segment whose comparative
// shape is stable (verified by TestBudgetInsensitivity).
type Options struct {
	// Budget is the measured instructions per thread; the run stops when
	// the first thread retires this many (the paper's stopping rule).
	Budget uint64
	// Warmup is the per-thread instruction count retired before
	// measurement, excluding cold-structure effects that 300M-instruction
	// runs amortize but scaled runs would not.
	Warmup uint64
	// OracleBudget is the per-mapping budget of the BEST/WORST exhaustive
	// search; 0 means Budget.
	OracleBudget uint64
	// MaxOracle caps the number of mappings the oracle simulates. When the
	// enumeration is larger, a deterministic stride subsample is searched
	// (plus the heuristic's mapping, which Evaluate always includes), so
	// BEST becomes a lower bound and WORST an upper bound of the true
	// extremes. 0 means unlimited (the paper's exhaustive oracle).
	MaxOracle int
	// Sample, when enabled (Period > 0), runs simulations in sampled mode:
	// short detailed intervals at the given period with functional
	// fast-forward between them (core.RunSampled). Results carry a
	// SampleSummary with a 95% confidence interval, and request keys
	// include the sampling parameters, so sampled and exact runs of the
	// same design point memoize separately. Run and Runner.Run honor it,
	// as do the design-point requests of NewRequest; the sweeps (Evaluate,
	// RunFigure, the ablations), RunReference, RunDynamic and the
	// alone runs of Fairness and AloneRequest always run exact.
	Sample core.SampleParams
}

// DefaultOptions returns the scaled defaults.
func DefaultOptions() Options {
	return Options{Budget: 30_000, Warmup: 10_000}
}

func (o Options) oracleBudget() uint64 {
	if o.OracleBudget != 0 {
		return o.OracleBudget
	}
	return o.Budget
}

// Address-space layout: each thread gets a distinct code and data region.
// Code bases are staggered by a non-set-aligned offset so threads do not
// collide pathologically in the I-cache.
const (
	codeBase    = 0x100000
	codeStride  = 0x4000000
	codeStagger = 0x11040
	dataBase    = 0x10000000
	dataStride  = 0x40000000
)

// progCache memoizes built benchmark programs by (benchmark, code base).
// A Program is deterministic in those two inputs and immutable after
// construction (safe for concurrent streams), so every simulation of a
// sweep can share one instance instead of rebuilding the dictionary per
// run — construction would otherwise dominate short-budget cells.
var progCache sync.Map // progKey -> *trace.Program

type progKey struct {
	name string
	base uint64
}

func buildProgram(b bench.Benchmark, base uint64) (*trace.Program, error) {
	key := progKey{b.Name, base}
	if p, ok := progCache.Load(key); ok {
		return p.(*trace.Program), nil
	}
	prog, err := b.Build(base)
	if err != nil {
		return nil, err
	}
	p, _ := progCache.LoadOrStore(key, prog)
	return p.(*trace.Program), nil
}

// Specs builds the per-thread specifications for a workload.
func Specs(w workload.Workload) ([]core.ThreadSpec, error) {
	bs, err := w.Resolve()
	if err != nil {
		return nil, err
	}
	specs := make([]core.ThreadSpec, len(bs))
	for i, b := range bs {
		prog, err := buildProgram(b, uint64(codeBase+i*codeStride+i*codeStagger))
		if err != nil {
			return nil, fmt.Errorf("sim: building %s: %w", b.Name, err)
		}
		specs[i] = core.ThreadSpec{
			Name:     b.Name,
			Program:  prog,
			Seed:     b.Params.Seed ^ uint64(i)<<32,
			DataBase: uint64(dataBase + i*dataStride),
		}
	}
	return specs, nil
}

// Run simulates workload w on cfg under the given thread mapping. When
// opt.Sample is enabled the run is sampled (core.RunSampled) and the
// results carry a SampleSummary. It runs on the calling goroutine,
// outside any engine.
func Run(cfg config.Microarch, w workload.Workload, m mapping.Mapping, opt Options) (core.Results, error) {
	return simulate(context.Background(), withSample(newRequest(cfg, w, m, opt.Budget, opt.Warmup), opt))
}

// RunReference is Run on the core's naive reference stepping path (no
// event-driven issue wakeup, no idle-cycle fast-forward), always exact.
// Results are bit-identical to Run — the equivalence tests assert it — so
// its only uses are as the oracle in those tests and as the in-binary
// baseline of cmd/experiments -perf, which fails if the two paths' counts
// differ.
func RunReference(cfg config.Microarch, w workload.Workload, m mapping.Mapping, opt Options) (core.Results, error) {
	p, err := newProcessor(nil, newRequest(cfg, w, m, opt.Budget, opt.Warmup), core.WithReferenceStepping())
	if err != nil {
		return core.Results{}, err
	}
	return p.Run(opt.Budget)
}

// DefaultMapping returns the mapping used when the caller supplies none:
// the trivial all-zero mapping for monolithic configurations (every thread
// on the one pipeline), the §2.1 profile-guided heuristic otherwise.
func DefaultMapping(cfg config.Microarch, w workload.Workload) (mapping.Mapping, error) {
	if cfg.Monolithic {
		return make(mapping.Mapping, w.Threads()), nil
	}
	return HeuristicMapping(cfg, w)
}

// HeuristicMapping computes the §2.1 profile-guided mapping for w on cfg.
func HeuristicMapping(cfg config.Microarch, w workload.Workload) (mapping.Mapping, error) {
	misses, err := profile(w)
	if err != nil {
		return nil, err
	}
	return mapping.Heuristic(cfg.ForThreads(len(misses)), misses)
}

// WidthFitMapping computes the extension WidthFit mapping (see
// mapping.WidthFit) from the same profile data HEUR uses.
func WidthFitMapping(cfg config.Microarch, w workload.Workload) (mapping.Mapping, error) {
	misses, err := profile(w)
	if err != nil {
		return nil, err
	}
	return mapping.WidthFit(cfg.ForThreads(len(misses)), misses)
}

// profile returns the HEUR profile of w's threads, in thread order: each
// benchmark's L1D misses over bench.ProfileLen instructions.
func profile(w workload.Workload) ([]uint64, error) {
	bs, err := w.Resolve()
	if err != nil {
		return nil, err
	}
	return bench.MissCounts(bs, bench.ProfileLen)
}

// Measurement is one (configuration, workload) cell of Figs. 4/5: the
// oracle BEST and WORST mappings' IPC and the heuristic's.
type Measurement struct {
	Config   string
	Workload string

	Best  float64
	Heur  float64
	Worst float64

	BestMapping  mapping.Mapping
	HeurMapping  mapping.Mapping
	WorstMapping mapping.Mapping

	// Mappings is the number of distinct mappings the oracle searched.
	Mappings int
}

// evalPlan is the batch of engine jobs behind one Measurement: the
// heuristic mapping at full budget plus every oracle mapping at the oracle
// budget (or the single trivial run, for monolithic configurations).
// Planning is separated from finishing so callers can concatenate many
// cells' jobs into a single engine batch (see Runner.RunFigure).
type evalPlan struct {
	cfg  config.Microarch
	w    workload.Workload
	mono bool
	hm   mapping.Mapping
	all  []mapping.Mapping // oracle mappings; reqs[1+i] simulates all[i]
	reqs []engine.Request
}

func planEvaluate(cfg config.Microarch, w workload.Workload, opt Options) (*evalPlan, error) {
	p := &evalPlan{cfg: cfg, w: w}
	n := w.Threads()

	if cfg.Monolithic {
		p.mono = true
		p.hm = make(mapping.Mapping, n) // all threads on the one pipeline
		p.reqs = []engine.Request{newRequest(cfg, w, p.hm, opt.Budget, opt.Warmup)}
		return p, nil
	}

	hm, err := HeuristicMapping(cfg, w)
	if err != nil {
		return nil, err
	}
	p.hm = hm

	all := mapping.Enumerate(cfg, n)
	if len(all) == 0 {
		return nil, fmt.Errorf("sim: no feasible mappings for %s/%s", cfg.Name, w.Name)
	}
	if opt.MaxOracle > 0 && len(all) > opt.MaxOracle {
		sampled := make([]mapping.Mapping, 0, opt.MaxOracle)
		stride := float64(len(all)) / float64(opt.MaxOracle)
		for i := 0; i < opt.MaxOracle; i++ {
			sampled = append(sampled, all[int(float64(i)*stride)])
		}
		all = sampled
	}
	p.all = all
	p.reqs = make([]engine.Request, 0, 1+len(all))
	p.reqs = append(p.reqs, newRequest(cfg, w, hm, opt.Budget, opt.Warmup))
	for _, m := range all {
		p.reqs = append(p.reqs, newRequest(cfg, w, m, opt.oracleBudget(), opt.Warmup))
	}
	return p, nil
}

// finish folds the batch's results (in p.reqs order) into the Measurement.
func (p *evalPlan) finish(results []core.Results) Measurement {
	meas := Measurement{Config: p.cfg.Name, Workload: p.w.Name}
	if p.mono {
		r := results[0]
		meas.Best, meas.Heur, meas.Worst = r.IPC, r.IPC, r.IPC
		meas.BestMapping, meas.HeurMapping, meas.WorstMapping = p.hm, p.hm, p.hm
		meas.Mappings = 1
		return meas
	}

	meas.Heur = results[0].IPC
	meas.HeurMapping = p.hm
	meas.Mappings = len(p.all)

	oracle := results[1:]
	best, worst := 0, 0
	for i := range oracle {
		if oracle[i].IPC > oracle[best].IPC {
			best = i
		}
		if oracle[i].IPC < oracle[worst].IPC {
			worst = i
		}
	}
	meas.Best, meas.BestMapping = oracle[best].IPC, p.all[best]
	meas.Worst, meas.WorstMapping = oracle[worst].IPC, p.all[worst]

	// The oracle search may run at a reduced budget; the heuristic runs at
	// full budget. Clamp so reported series stay consistent (BEST is by
	// definition at least HEUR, WORST at most).
	if meas.Heur > meas.Best {
		meas.Best = meas.Heur
		meas.BestMapping = p.hm
	}
	if meas.Heur < meas.Worst {
		meas.Worst = meas.Heur
		meas.WorstMapping = p.hm
	}
	return meas
}
