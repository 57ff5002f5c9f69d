package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"

	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/metrics"
	"hdsmt/internal/pareto"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
)

// Options configures one search run.
type Options struct {
	// Budget is the number of point evaluations the search may charge: a
	// distinct feasible candidate scored for the first time costs 1 (its
	// per-workload simulations fan out through the engine; any of them may
	// still be engine cache hits). Infeasible decodes and revisits are
	// free. Budget <= 0 means unbounded — sensible only for Exhaustive,
	// whose enumeration terminates on its own.
	Budget int
	// Seed drives every stochastic choice. The same seed, space, strategy
	// and budget reproduce the identical trajectory, byte for byte.
	Seed int64
	// Sim scales the per-point simulations (Budget/Warmup per thread).
	Sim sim.Options
	// Objectives, when non-empty, makes the run multi-objective: every
	// settled score carries its gain vector over this list, the driver
	// maintains an archive of non-dominated points, and the Result gains
	// the front and its hypervolume trajectory. Empty means the scalar
	// IPC/mm² search (scores then carry the one-element [per_area] vector,
	// so the multi-objective strategies degrade gracefully to scalar
	// optimizers). Objectives resolve from the metric registry; one whose
	// metric needs alone-run baselines (fairness) additionally prices
	// per-benchmark alone simulations into every first visit.
	Objectives []pareto.Objective
	// ArchiveCap bounds the non-dominated archive (crowding-distance
	// pruning beyond it; 0 = pareto.DefaultArchiveCap, negative is an
	// error). Pruning can make the hypervolume trajectory non-monotone —
	// size the cap above the expected front for indicator studies.
	ArchiveCap int
	// ArchivePath, when non-empty on a multi-objective run, persists the
	// non-dominated archive as JSON at this path (atomic rewrite on every
	// archive change) and — when the file already exists — seeds the
	// archive from it before the strategy runs, so a canceled run resumed
	// with the same path restores its front instead of rediscovering it.
	// Meant to sit next to the engine's checkpoint journal: the journal
	// resumes the simulations, the archive file resumes the front.
	ArchivePath string
	// Progress, when non-nil, is called after each charged evaluation with
	// (evaluations spent, target), where target is the effective number of
	// evaluations the search can charge: min(Budget, distinct candidates),
	// or the distinct-candidate count when Budget is unbounded. Not part
	// of the result.
	Progress func(done, total int)
	// FrontProgress, when non-nil, is called after every archive change on
	// a multi-objective run with the incumbent front (canonical order) and
	// its hypervolume — the hook behind the server's mid-run front
	// streaming. Not part of the result.
	FrontProgress func(front []TrajectoryPoint, hypervolume float64)
	// Telemetry, when non-nil, receives per-strategy counters (charged
	// evaluations, engine submissions, cache-served submissions) and a
	// best-so-far age gauge (evaluations since the scalar incumbent last
	// improved). Purely observational: the Result carries the same ledger,
	// so a nil registry loses nothing but live visibility.
	Telemetry *telemetry.Registry
	// Sample, when enabled (Period > 0), triages first visits with sampled
	// simulations at these parameters: every candidate is first scored from
	// the cheap sampled estimates, and only those whose optimistic bound —
	// point estimate shifted by its 95% margin in the improving direction —
	// could displace the scalar incumbent or enter the Pareto archive are
	// re-simulated in full before they settle. Incumbents and archive
	// members are therefore always exact measurements; scores settled from
	// the triage pass carry their margins as metric companions in Values
	// (metrics.SetMoE), so consumers can see how trustworthy they are.
	//
	// A triage run estimates the exact run it stands in for (matched
	// coverage): it runs units = ⌊Sim.Budget/Period⌋ sampling units of
	// Detail measured instructions each, covering units×Period ≤
	// Sim.Budget instructions of the same stream. Only shared runs are
	// sampled: fairness's alone baselines always run exact at Sim.Budget,
	// once for both passes. When units < 2 sampling cannot do that more
	// cheaply than the exact run, so the exact run is the triage estimate:
	// its score is already exact and settles without a promotion.
	Sample core.SampleParams
}

// TrajectoryPoint is one recorded machine: the incumbent of a best-so-far
// improvement (Trajectory), or a front member (Front).
type TrajectoryPoint struct {
	// Evaluations is the budget spent when this point was found.
	Evaluations int `json:"evaluations"`
	// Config is the machine's canonical configuration name.
	Config string `json:"config"`
	// Policy is the fetch-policy override ("" = configuration default).
	Policy string `json:"policy,omitempty"`
	// Remap is the dynamic-remap interval in cycles (0 = static).
	Remap uint64 `json:"remap,omitempty"`
	// Values holds the machine's metric values by registry key (the
	// settled Score's Values; see Score).
	Values metrics.Values `json:"values"`
}

// Name renders the point like Candidate.Name ("2M4+2M2", "3M4q75 FLUSH
// r2048").
func (tp TrajectoryPoint) Name() string { return renderName(tp.Config, tp.Policy, tp.Remap) }

// Metric returns one of the point's metric values by registry key (0 when
// absent).
func (tp TrajectoryPoint) Metric(key string) float64 { return tp.Values[key] }

// ObjectiveVector extracts the point's raw values over the given objective
// list, in list order — the one key-to-value mapping front checks and
// exporters share. Unknown keys panic, like objectiveValue.
func (tp TrajectoryPoint) ObjectiveVector(objs []pareto.Objective) pareto.Vector {
	v := make(pareto.Vector, len(objs))
	for i, o := range objs {
		v[i] = objectiveValue(Score{Values: tp.Values}, o.Key)
	}
	return v
}

// CheckFront verifies a front's members are mutually non-dominated under
// objs — the invariant every archive rendering must satisfy, shared by the
// benchmark's assertions and the tests.
func CheckFront(objs []pareto.Objective, front []TrajectoryPoint) error {
	for i := range front {
		for j := range front {
			if i != j && pareto.Dominates(objs, front[i].ObjectiveVector(objs), front[j].ObjectiveVector(objs)) {
				return fmt.Errorf("search: front member %s dominates %s", front[i].Name(), front[j].Name())
			}
		}
	}
	return nil
}

// HypervolumePoint is one step of the front-quality trajectory: the
// archive's hypervolume after the evaluation that changed it.
type HypervolumePoint struct {
	Evaluations int     `json:"evaluations"`
	Hypervolume float64 `json:"hypervolume"`
}

// Result is one search's auditable outcome: the incumbent, the best-so-far
// curve, on multi-objective runs the non-dominated front with its
// hypervolume trajectory, and the cost accounting that lets search
// efficiency be compared against exhaustive enumeration. It marshals
// deterministically — a fixed seed reproduces the JSON byte for byte (no
// wall-clock fields).
type Result struct {
	Strategy  string `json:"strategy"`
	SpaceSize int64  `json:"space_size"` // genotypes in the space
	Budget    int    `json:"budget"`     // 0 = unbounded
	Seed      int64  `json:"seed"`
	// Objectives names the run's objective keys, in vector order; empty on
	// scalar runs.
	Objectives []string `json:"objectives,omitempty"`

	// Evaluations is the budget actually spent (distinct candidates
	// scored). Visited counts every point proposed, Revisits the memoized
	// re-proposals, Infeasible the decode- or context-infeasible points.
	Evaluations int `json:"evaluations"`
	Visited     int `json:"visited"`
	Revisits    int `json:"revisits"`
	Infeasible  int `json:"infeasible"`

	// Submitted counts the simulation requests this search submitted to
	// the engine; Simulations is the subset not served from the engine's
	// in-memory store at submission — the search's own simulation cost
	// (attribution is per-ticket, so concurrent jobs on the same runner
	// cannot skew it; a request coalesced with another job still counts
	// here, making Simulations an upper bound).
	// CacheHitRate = 1 - Simulations/Submitted.
	Simulations  uint64  `json:"simulations"`
	Submitted    uint64  `json:"submitted"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Triaged counts every charged candidate whenever Options.Sample is
	// enabled: each is first scored from its triage pass, sampled at
	// matched coverage or, in the fallback, exact. Promoted is the subset
	// whose sampled estimate warranted an exact run before settling; an
	// exact fallback triage never promotes, so Promoted stays zero. Both
	// zero on exact runs.
	Triaged  int `json:"triaged,omitempty"`
	Promoted int `json:"promoted,omitempty"`

	// RestoredFront counts archive members seeded from Options.ArchivePath
	// before the strategy ran (0 on fresh runs).
	RestoredFront int `json:"restored_front,omitempty"`

	// Best is the scalar IPC/mm² incumbent (nil when no feasible point was
	// found); Trajectory is every incumbent in discovery order, Best last.
	// Both are maintained on multi-objective runs too, anchoring the front
	// to the complexity-effectiveness objective the paper argues with.
	Best       *TrajectoryPoint  `json:"best,omitempty"`
	Trajectory []TrajectoryPoint `json:"trajectory"`

	// Front is the archive at the end of a multi-objective run: mutually
	// non-dominated machines in the archive's canonical order (descending
	// first-objective gain). Hypervolume records the front-quality
	// trajectory — one point per evaluation that changed the archive
	// (evaluation 0 is the restored front, when ArchivePath seeded one).
	Front       []TrajectoryPoint  `json:"front,omitempty"`
	Hypervolume []HypervolumePoint `json:"hypervolume,omitempty"`
}

// Driver runs strategies over a space, fanning point evaluations out
// through a shared sim.Runner's engine and recording the trajectory. The
// caller keeps ownership of the runner (and its memoization store, which
// successive searches share — a warm store makes overlapping searches
// nearly free).
type Driver struct {
	runner *sim.Runner
}

// NewDriver builds a Driver on r.
func NewDriver(r *sim.Runner) *Driver { return &Driver{runner: r} }

// Search runs one strategy over sp under opts. Budget exhaustion is normal
// termination; context cancellation and simulation failures are errors.
func (d *Driver) Search(ctx context.Context, sp Space, st Strategy, opts Options) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("search: nil strategy")
	}
	if opts.ArchiveCap < 0 {
		return nil, fmt.Errorf("search: archive cap %d must not be negative (0 = default)", opts.ArchiveCap)
	}

	res := &Result{
		Strategy:   st.Name(),
		SpaceSize:  sp.Size(),
		Budget:     opts.Budget,
		Seed:       opts.Seed,
		Trajectory: []TrajectoryPoint{},
	}
	state := &evalState{
		driver: d, space: &sp, opts: opts, res: res,
		memo: map[string]Score{},
		objs: opts.Objectives,
	}
	state.instrument(opts.Telemetry, st.Name())
	if len(state.objs) > 0 {
		res.Objectives = pareto.Keys(state.objs)
		state.archive = pareto.NewArchive(state.objs, opts.ArchiveCap)
		state.needsAlone = needsAloneRuns(state.objs)
		if opts.ArchivePath != "" {
			if err := state.restoreArchive(); err != nil {
				return nil, err
			}
		}
	} else if opts.ArchivePath != "" {
		return nil, fmt.Errorf("search: ArchivePath needs a multi-objective run (set Objectives)")
	}
	var chargeable int
	state.distinct, chargeable = sp.census()
	state.target = chargeable
	if opts.Budget > 0 && opts.Budget < state.target {
		state.target = opts.Budget
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	if err := st.Run(ctx, &sp, rng, state.evaluate); err != nil {
		return nil, err
	}

	res.Submitted = state.submitted
	res.Simulations = state.submitted - state.hits
	if res.Submitted > 0 {
		res.CacheHitRate = float64(state.hits) / float64(res.Submitted)
	}
	if len(res.Trajectory) > 0 {
		res.Best = &res.Trajectory[len(res.Trajectory)-1]
	}
	if state.archive != nil {
		res.Front = state.front()
	}
	return res, nil
}

// needsAloneRuns reports whether any objective's metric requires
// per-benchmark alone-run baseline simulations (metrics.Metric
// .NeedsAloneRuns — fairness, today).
func needsAloneRuns(objs []pareto.Objective) bool {
	for _, o := range objs {
		if m, ok := metrics.Lookup(o.Key); ok && m.NeedsAloneRuns {
			return true
		}
	}
	return false
}

// objectiveValue extracts one objective's raw value from a settled score.
// A missing value panics: the driver guarantees (settleJob's availability
// check) that every settled feasible score carries every objective metric,
// so absence here is a programming error, not an input error.
func objectiveValue(sc Score, key string) float64 {
	v, ok := sc.Values[key]
	if !ok {
		panic(fmt.Sprintf("search: objective %q has no value on this score (known metrics: %v)", key, metrics.Keys()))
	}
	return v
}

// evalState is the driver-side half of one search: the budget ledger, the
// candidate memo, the trajectory recorder, and (multi-objective runs) the
// non-dominated archive behind the Evaluator closure handed to the
// strategy.
type evalState struct {
	driver *Driver
	space  *Space
	opts   Options
	res    *Result
	memo   map[string]Score // candidate key -> settled score
	// settled counts charged evaluations whose score has landed; it trails
	// Evaluations (charged at submission) and drives Progress.
	settled int
	// distinct is the space's decodable-candidate count; once the memo
	// covers it no proposal can progress, so evaluate stops open-ended
	// strategies with ErrSpaceExhausted. target is the effective charge
	// ceiling reported to Progress: min(Budget, distinct).
	distinct int
	target   int
	// submitted/hits attribute engine traffic to this search per ticket.
	submitted, hits uint64

	// Multi-objective state: the run's objectives, whether a metric among
	// them needs alone-run baselines, and the non-dominated archive (each
	// entry carries its TrajectoryPoint rendering as the payload).
	objs       []pareto.Objective
	needsAlone bool
	archive    *pareto.Archive

	// Per-strategy telemetry (nil series no-op when Options.Telemetry is
	// unset). bestAge backs the sampled gauge — an atomic because scrapes
	// race the driver goroutine.
	telEvals, telSubmitted, telHits *telemetry.Counter
	bestAge                         atomic.Int64
}

// instrument registers the run's per-strategy series in reg (nil = off).
func (s *evalState) instrument(reg *telemetry.Registry, strategy string) {
	if reg == nil {
		return
	}
	s.telEvals = reg.CounterVec(telemetry.MetricSearchEvaluations,
		"charged point evaluations", "strategy").With(strategy)
	s.telSubmitted = reg.CounterVec(telemetry.MetricSearchSubmitted,
		"simulation requests submitted to the engine", "strategy").With(strategy)
	s.telHits = reg.CounterVec(telemetry.MetricSearchCacheHits,
		"submissions served from the engine's in-memory store", "strategy").With(strategy)
	reg.GaugeFuncWith(telemetry.MetricSearchBestAge,
		"evaluations since the scalar incumbent last improved", "strategy", strategy,
		func() float64 { return float64(s.bestAge.Load()) })
}

// cellTickets is one workload's in-flight simulations for a candidate: the
// shared run and — on alone-run-priced objective runs — one alone run per
// benchmark.
type cellTickets struct {
	shared *engine.Ticket
	alone  []*engine.Ticket
}

// job is one batch entry that needs simulation: the candidate, its charge
// number, and its per-workload ticket groups.
type job struct {
	pos    int // index into the batch's scores
	cand   Candidate
	charge int // res.Evaluations value at charge time (1-based)
	cells  []cellTickets
}

// infeasibleScore is the settled verdict for points that decode to no
// simulatable machine: Settled so strategies can tell it from a pending
// placeholder, Feasible false.
var infeasibleScore = Score{Settled: true}

// evaluate implements Evaluator: decode, dedup, charge, fan out, settle in
// order. See the interface comment for the truncation contract.
func (s *evalState) evaluate(ctx context.Context, pts []Point) ([]Score, error) {
	scores := make([]Score, 0, len(pts))
	var jobs []job
	inflight := map[string]bool{} // keys charged in this batch, score pending
	// Duplicates of an in-flight key stay placeholders until the batch
	// settles — blocking on the first occurrence mid-loop would serialize
	// the rest of the batch's submissions.
	type dup struct {
		pos int
		key string
	}
	var backfill []dup

	settle := func() error {
		for _, j := range jobs {
			sc, err := s.settleJob(ctx, j)
			if err != nil {
				return err
			}
			s.memo[j.cand.Key()] = sc
			scores[j.pos] = sc
			if err := s.record(j, sc); err != nil {
				return err
			}
		}
		jobs = nil
		for _, d := range backfill {
			scores[d.pos] = s.memo[d.key]
		}
		backfill = nil
		return nil
	}

	for _, pt := range pts {
		if len(s.memo) >= s.distinct {
			// Every decodable candidate is scored: nothing left to learn.
			if err := settle(); err != nil {
				return nil, err
			}
			return scores, ErrSpaceExhausted
		}
		s.res.Visited++
		cand, err := s.space.Decode(pt)
		if err != nil {
			if _, ok := err.(ErrInfeasible); ok {
				s.res.Infeasible++
				scores = append(scores, infeasibleScore)
				continue
			}
			return nil, err
		}
		key := cand.Key()
		if inflight[key] {
			s.res.Revisits++
			backfill = append(backfill, dup{pos: len(scores), key: key})
			scores = append(scores, Score{}) // filled at settle
			continue
		}
		if sc, ok := s.memo[key]; ok {
			s.res.Revisits++
			scores = append(scores, sc)
			continue
		}

		if !s.space.FitsWorkloads(cand) {
			s.res.Infeasible++
			s.memo[key] = infeasibleScore
			scores = append(scores, infeasibleScore)
			continue
		}

		if s.opts.Budget > 0 && s.res.Evaluations >= s.opts.Budget {
			if err := settle(); err != nil {
				return nil, err
			}
			return scores, ErrBudgetExhausted
		}
		s.res.Evaluations++
		s.telEvals.Inc()
		j := job{pos: len(scores), cand: cand, charge: s.res.Evaluations}
		if j.cells, err = s.submitCells(ctx, cand, s.opts.Sample.Enabled()); err != nil {
			return nil, err
		}
		inflight[key] = true
		scores = append(scores, Score{}) // placeholder, settled below
		jobs = append(jobs, j)
	}
	if err := settle(); err != nil {
		return nil, err
	}
	return scores, nil
}

// submitCells fans out one candidate's simulations: per workload the
// shared run plus — when an objective's metric needs them — one alone-run
// baseline per benchmark (AloneRequest on the ForThreads-normalized
// configuration, like the shared run, so keys match across callers).
// triage selects the triage pass: the shared run is sampled at matched
// coverage, or exact when fewer than two sampling units fit (see
// Options.Sample). Alone runs are always exact over the full budget, so
// the triage and settle passes share them. The settle pass always runs
// exact, whatever the caller put in Options.Sim.
func (s *evalState) submitCells(ctx context.Context, cand Candidate, triage bool) ([]cellTickets, error) {
	exact := s.opts.Sim
	exact.Sample = core.SampleParams{}
	simOpt := exact
	if triage {
		if units := s.triageUnits(); units >= 2 {
			simOpt.Sample = s.opts.Sample
			simOpt.Budget = units * s.opts.Sample.Detail
		}
	}
	var cells []cellTickets
	for _, w := range s.space.Workloads {
		req, err := sim.NewRequest(cand.Cfg, w, simOpt, cand.Policy, cand.Remap)
		if err != nil {
			return nil, fmt.Errorf("search: %s on %s: %w", cand.Name(), w.Name, err)
		}
		cell := cellTickets{}
		if cell.shared, err = s.submit(ctx, req); err != nil {
			return nil, err
		}
		if s.needsAlone {
			for b := range w.Benchmarks {
				tk, err := s.submit(ctx, sim.AloneRequest(req.Cfg, w, b, exact))
				if err != nil {
					return nil, err
				}
				cell.alone = append(cell.alone, tk)
			}
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// triageUnits is the number of sampling units a triage run covers: the
// whole sampling periods that fit in the exact run's budget. Below 2 the
// triage pass runs exact (see Options.Sample).
func (s *evalState) triageUnits() uint64 {
	return s.opts.Sim.Budget / s.opts.Sample.Period
}

// submit sends one request to the engine and attributes its cache fate to
// this search.
func (s *evalState) submit(ctx context.Context, req engine.Request) (*engine.Ticket, error) {
	tk, err := s.driver.runner.Engine().Submit(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("search: submitting %s: %w", req, err)
	}
	s.submitted++
	s.telSubmitted.Inc()
	if tk.CacheHit() {
		s.hits++
		s.telHits.Inc()
	}
	return tk, nil
}

// settleJob produces one candidate's settled score. On exact runs it just
// assembles the simulations' metrics. Under the sampled triage policy
// (Options.Sample) the charged cells were triage estimates: the score is
// assembled with its margins, and when its optimistic bound could displace
// the scalar incumbent or enter the archive, the candidate is re-simulated
// in full and the exact score settles instead — the coarse pass spends the
// search budget, the accurate pass is reserved for points that matter. A
// triage pass that fell back to exact runs settles as it is.
func (s *evalState) settleJob(ctx context.Context, j job) (Score, error) {
	sc, err := s.assembleScore(ctx, j)
	if err != nil || !s.opts.Sample.Enabled() {
		return sc, err
	}
	s.res.Triaged++
	if s.triageUnits() < 2 || !s.promotable(sc) {
		// An exact fallback triage is already the settled score.
		return sc, nil
	}
	s.res.Promoted++
	if j.cells, err = s.submitCells(ctx, j.cand, false); err != nil {
		return Score{}, err
	}
	return s.assembleScore(ctx, j)
}

// promotable judges a sampled triage score by its optimistic bound — every
// objective shifted by its 95% margin in the improving direction. Scalar
// runs promote when the bound beats the incumbent; multi-objective runs
// promote when no archive member dominates it (mirroring Archive.Add's
// rejection rule, so a non-promoted point provably could not have entered).
func (s *evalState) promotable(sc Score) bool {
	if !sc.Feasible {
		return false
	}
	if len(s.objs) == 0 {
		best := s.res.Best
		optimistic := sc.Metric("per_area") * (1 + metrics.RelMoE(sc.Values, "per_area"))
		return best == nil || optimistic > best.Metric("per_area")
	}
	raw := make(pareto.Vector, len(s.objs))
	for i, o := range s.objs {
		v := objectiveValue(sc, o.Key)
		rel := metrics.RelMoE(sc.Values, o.Key)
		if o.Sense == pareto.Minimize {
			v *= 1 - rel
		} else {
			v *= 1 + rel
		}
		raw[i] = v
	}
	g := pareto.Gain(s.objs, raw)
	for _, m := range s.archive.Members() {
		if pareto.GainDominates(pareto.Gain(s.objs, m.Vector), g) {
			return false
		}
	}
	return true
}

// assembleScore waits for one candidate's simulations and assembles its
// score: the base metrics — harmonic-mean IPC over the workloads, area,
// mean energy per instruction from the runs' activity counters, mean
// harmonic fairness when an objective prices its alone runs in — then
// every derivable registered metric (metrics.Finalize), and the gain
// vector over the run's objectives. Sampled results additionally settle
// their 95% margins into the Values companion channel (metrics.SetMoE),
// propagated conservatively: the worst per-workload relative margin, with
// one factor per sampled estimate entering a derived ratio. A run whose
// objective metric cannot be produced (e.g. energy over results journaled
// before activity counters existed) fails loudly rather than archiving
// zeros.
func (s *evalState) assembleScore(ctx context.Context, j job) (Score, error) {
	sc := Score{Settled: true, Feasible: true, Values: metrics.Values{"area": j.cand.Area}}
	ipcs := make([]float64, len(j.cells))
	fairSum, energySum, rel := 0.0, 0.0, 0.0
	energyOK := true
	for k, cell := range j.cells {
		shared, err := cell.shared.Wait(ctx)
		if err != nil {
			return Score{}, fmt.Errorf("search: evaluating %s: %w", j.cand.Name(), err)
		}
		ipcs[k] = shared.IPC
		if sp := shared.Sampled; sp != nil && sp.IPCMean > 0 {
			if r := sp.IPCMoE / sp.IPCMean; r > rel {
				rel = r
			}
		}
		if energyOK {
			// Price energy from the shared run's activity counters. The
			// counters cost nothing extra, so energy is computed for every
			// run — but a result restored from a pre-activity journal has
			// none; the metric is then simply absent (and the availability
			// check below rejects the run only if an objective needs it).
			eb, err := sim.EnergyOf(j.cand.Cfg.ForThreads(s.space.Workloads[k].Threads()), shared)
			if err != nil {
				energyOK = false
			} else {
				energySum += eb.EPI
			}
		}
		if s.needsAlone {
			alone := make([]float64, len(cell.alone))
			for b, tk := range cell.alone {
				r, err := tk.Wait(ctx)
				if err != nil {
					return Score{}, fmt.Errorf("search: alone run for %s: %w", j.cand.Name(), err)
				}
				alone[b] = r.IPC
			}
			f, err := sim.FairnessFromResults(j.cand.Cfg, s.space.Workloads[k], shared, alone)
			if err != nil {
				return Score{}, fmt.Errorf("search: fairness of %s: %w", j.cand.Name(), err)
			}
			fairSum += f.HarmonicFairness
		}
	}
	sc.Values["ipc"] = metrics.HMean(ipcs)
	if energyOK {
		sc.Values["energy"] = energySum / float64(len(j.cells))
	}
	if s.needsAlone {
		sc.Values["fairness"] = fairSum / float64(len(j.cells))
	}
	metrics.Finalize(sc.Values)
	if rel > 0 {
		// The worst per-workload relative margin bounds the aggregate's
		// (the harmonic mean's relative error never exceeds its worst
		// component). Derived ratios take one factor per sampled input:
		// per_area divides by exact area, ed stacks energy on ipc, ed²
		// another ipc. Fairness mixes the sampled shared run with exact
		// alone baselines, so one factor covers it.
		for key, factors := range map[string]float64{
			"ipc": 1, "energy": 1, "fairness": 1, "per_area": 1, "ed": 2, "ed2": 3,
		} {
			if v, ok := sc.Values[key]; ok {
				metrics.SetMoE(sc.Values, key, v*rel*factors)
			}
		}
	}
	if len(s.objs) > 0 {
		raw := make(pareto.Vector, len(s.objs))
		for i, o := range s.objs {
			v, ok := sc.Values[o.Key]
			if !ok {
				return Score{}, fmt.Errorf("search: objective %q has no value for %s (results predate its base counters?)", o.Key, j.cand.Name())
			}
			raw[i] = v
		}
		sc.Objectives = pareto.Gain(s.objs, raw)
	} else {
		sc.Objectives = pareto.Vector{sc.Metric("per_area")}
	}
	return sc, nil
}

// record advances the best-so-far curve and the multi-objective archive
// (persisting it and streaming the front when the options ask), then
// reports progress.
func (s *evalState) record(j job, sc Score) error {
	tp := TrajectoryPoint{
		Evaluations: j.charge,
		Config:      j.cand.Cfg.Name,
		Policy:      j.cand.Policy,
		Remap:       j.cand.Remap,
		Values:      sc.Values,
	}
	if sc.Feasible && (s.res.Best == nil || sc.Metric("per_area") > s.res.Best.Metric("per_area")) {
		s.res.Trajectory = append(s.res.Trajectory, tp)
		s.res.Best = &s.res.Trajectory[len(s.res.Trajectory)-1]
	}
	if s.res.Best != nil {
		s.bestAge.Store(int64(j.charge - s.res.Best.Evaluations))
	}
	if s.archive != nil && sc.Feasible {
		raw := make(pareto.Vector, len(s.objs))
		for i, o := range s.objs {
			raw[i] = objectiveValue(sc, o.Key)
		}
		if s.archive.Add(pareto.Entry{Key: j.cand.Key(), Name: j.cand.Name(), Vector: raw, Payload: tp}) {
			hv := s.archive.Hypervolume()
			s.res.Hypervolume = append(s.res.Hypervolume, HypervolumePoint{
				Evaluations: j.charge,
				Hypervolume: hv,
			})
			if err := s.archiveChanged(hv); err != nil {
				return err
			}
		}
	}
	s.settled++
	if s.opts.Progress != nil {
		s.opts.Progress(s.settled, s.target)
	}
	return nil
}

// front renders the archive in canonical order.
func (s *evalState) front() []TrajectoryPoint {
	out := make([]TrajectoryPoint, 0, s.archive.Len())
	for _, m := range s.archive.Members() {
		out = append(out, m.Payload.(TrajectoryPoint))
	}
	return out
}

// archiveChanged runs the change hooks: persistence and front streaming.
func (s *evalState) archiveChanged(hv float64) error {
	var front []TrajectoryPoint
	if s.opts.ArchivePath != "" || s.opts.FrontProgress != nil {
		front = s.front()
	}
	if s.opts.ArchivePath != "" {
		if err := saveArchive(s.opts.ArchivePath, s.res.Objectives, front); err != nil {
			return err
		}
	}
	if s.opts.FrontProgress != nil {
		s.opts.FrontProgress(front, hv)
	}
	return nil
}

// persistedArchive is the on-disk shape of a saved front: the objective
// keys pin what the vectors meant, so a resume under different objectives
// fails loudly instead of silently merging incomparable fronts.
type persistedArchive struct {
	Objectives []string          `json:"objectives"`
	Front      []TrajectoryPoint `json:"front"`
}

// saveArchive writes the front atomically (temp file + rename), so a
// process killed mid-save leaves the previous checkpoint intact.
func saveArchive(path string, objectives []string, front []TrajectoryPoint) error {
	b, err := json.MarshalIndent(persistedArchive{Objectives: objectives, Front: front}, "", "  ")
	if err != nil {
		return fmt.Errorf("search: marshaling archive: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("search: saving archive: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("search: saving archive: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("search: saving archive: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("search: saving archive: %w", err)
	}
	return nil
}

// restoreArchive seeds the archive from Options.ArchivePath when the file
// exists. Restored members keep their recorded metric values and re-derive
// their keys from the canonical configuration name, so a member the
// strategy rediscovers deduplicates instead of re-entering. A hypervolume
// trajectory point at evaluation 0 records the restored front's quality.
func (s *evalState) restoreArchive() error {
	b, err := os.ReadFile(s.opts.ArchivePath)
	if os.IsNotExist(err) {
		return nil // fresh run: the first archive change creates the file
	}
	if err != nil {
		return fmt.Errorf("search: reading archive: %w", err)
	}
	var pa persistedArchive
	if err := json.Unmarshal(b, &pa); err != nil {
		return fmt.Errorf("search: parsing archive %s: %w", s.opts.ArchivePath, err)
	}
	if len(pa.Objectives) != len(s.res.Objectives) {
		return fmt.Errorf("search: archive %s was built over objectives %v, this run uses %v",
			s.opts.ArchivePath, pa.Objectives, s.res.Objectives)
	}
	for i, key := range pa.Objectives {
		if key != s.res.Objectives[i] {
			return fmt.Errorf("search: archive %s was built over objectives %v, this run uses %v",
				s.opts.ArchivePath, pa.Objectives, s.res.Objectives)
		}
	}
	for _, tp := range pa.Front {
		cand, err := candidateFromTrajectory(tp)
		if err != nil {
			return fmt.Errorf("search: restoring archive member %s: %w", tp.Name(), err)
		}
		// A member missing an objective value is a corrupt or foreign file;
		// fail the run, not the process (ObjectiveVector would panic).
		for _, o := range s.objs {
			if _, ok := tp.Values[o.Key]; !ok {
				return fmt.Errorf("search: archive member %s in %s has no %q value",
					tp.Name(), s.opts.ArchivePath, o.Key)
			}
		}
		if s.archive.Add(pareto.Entry{Key: cand.Key(), Name: cand.Name(), Vector: tp.ObjectiveVector(s.objs), Payload: tp}) {
			s.res.RestoredFront++
		}
	}
	if s.res.RestoredFront > 0 {
		s.res.Hypervolume = append(s.res.Hypervolume, HypervolumePoint{
			Evaluations: 0,
			Hypervolume: s.archive.Hypervolume(),
		})
	}
	return nil
}
