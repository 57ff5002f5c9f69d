package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"hdsmt/internal/metrics"
	"hdsmt/internal/pareto"
)

// Score is one evaluated point's verdict. Infeasible points (no
// pipelines, area cap, too few contexts for a workload) are Settled but
// Feasible false with no metric values; they cost no simulation and no
// budget.
//
// Settled distinguishes a decided score from the zero-value placeholder an
// Evaluator batch holds before its jobs land: the zero Score is *unsettled*
// (never a real verdict), an infeasible verdict is Score{Settled: true},
// and every score an Evaluator returns is settled. Strategies may rely on
// it; the driver's tests assert it.
type Score struct {
	Settled  bool `json:"settled"`
	Feasible bool `json:"feasible"`
	// Values holds the point's metric values by registry key
	// (internal/metrics): the measured base metrics — always ipc, area and
	// (when the run's activity counters allow) energy; fairness only when
	// an objective needs its alone-run baselines — plus every derivable
	// registered metric (per_area, ed, ed²). Adding a metric to the
	// registry adds it here without touching this struct. Nil on
	// infeasible scores.
	Values metrics.Values `json:"values,omitempty"`
	// Objectives is the point's gain vector over the run's objective list
	// (pareto.Gain: maximization-oriented, reference point at the origin),
	// [per_area] when the run is scalar. Multi-objective strategies compare
	// points with pareto.GainDominates; nil on infeasible scores.
	Objectives pareto.Vector `json:"objectives,omitempty"`
}

// Metric returns one of the score's metric values by registry key (0 when
// absent — infeasible scores carry none).
func (s Score) Metric(key string) float64 { return s.Values[key] }

// Better reports whether s beats o under the complexity-effectiveness
// objective (IPC/mm²). Any feasible score beats any infeasible one.
func (s Score) Better(o Score) bool {
	if s.Feasible != o.Feasible {
		return s.Feasible
	}
	return s.Metric("per_area") > o.Metric("per_area")
}

// Dominates reports whether s Pareto-dominates o on the run's gain
// vectors. Any feasible score dominates any infeasible one.
func (s Score) Dominates(o Score) bool {
	if s.Feasible != o.Feasible {
		return s.Feasible
	}
	if !s.Feasible || len(s.Objectives) != len(o.Objectives) {
		return false
	}
	return pareto.GainDominates(s.Objectives, o.Objectives)
}

// ErrBudgetExhausted is returned by an Evaluator once the evaluation
// budget is spent. Strategies treat it as their stop signal; the driver
// reports the search as complete, not failed.
var ErrBudgetExhausted = errors.New("search: evaluation budget exhausted")

// ErrSpaceExhausted is the Evaluator's stop signal when every distinct
// decodable candidate has been scored: no proposal can make progress, so
// open-ended strategies (random, aco, hillclimb restarts) terminate even
// when the budget exceeds the space. It matches ErrBudgetExhausted under
// errors.Is, so strategies need no second case.
var ErrSpaceExhausted = fmt.Errorf("search: every distinct candidate evaluated: %w", ErrBudgetExhausted)

// Evaluator scores a batch of points. All points of one call are submitted
// to the engine together (parallelism across the batch is free), and
// scores return in input order. Points beyond the remaining budget are not
// evaluated: the returned slice is truncated to the evaluated prefix and
// the error is ErrBudgetExhausted. Revisited points — same candidate key,
// whatever the genotype — are served from the driver's memo without
// spending budget.
type Evaluator func(ctx context.Context, pts []Point) ([]Score, error)

// Strategy walks a space, proposing points to eval until eval reports
// ErrBudgetExhausted (normal termination), the strategy is satisfied, or
// ctx ends. Implementations must derive every random choice from rng so a
// fixed seed reproduces the walk exactly.
type Strategy interface {
	Name() string
	Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error
}

// strategies lists the built-in strategies in presentation order: the
// exhaustive baseline, uniform random, hill-climbing and ant colony with
// their proxy-seeded variants, and the multi-objective nsga2 and paco.
var strategies = []Strategy{
	Exhaustive{}, Random{},
	HillClimb{}, HillClimb{Seeded: true},
	ACO{}, ACO{Seeded: true},
	NSGA2{}, PACO{},
}

// ByName resolves one of the built-in strategies by its Name.
func ByName(name string) (Strategy, error) {
	for _, st := range strategies {
		if st.Name() == name {
			return st, nil
		}
	}
	return nil, fmt.Errorf("search: unknown strategy %q (want one of %v)", name, StrategyNames())
}

// StrategyNames lists the built-in strategies' names in presentation order.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, st := range strategies {
		names[i] = st.Name()
	}
	return names
}

// stop folds an Evaluator error into the strategy's control flow: budget
// exhaustion is normal termination (return nil), anything else aborts.
func stop(err error) (bool, error) {
	if err == nil {
		return false, nil
	}
	if errors.Is(err, ErrBudgetExhausted) {
		return true, nil
	}
	return true, err
}

// batchSize is how many points strategies hand the Evaluator at once: large
// enough to keep a worker pool busy, small enough that budget truncation
// stays fine-grained.
const batchSize = 16

// Exhaustive enumerates every canonical genotype in deterministic order —
// the cross-check baseline, feasible only on small spaces. It ignores rng.
type Exhaustive struct{}

// Name identifies the strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Run visits the whole space in enumeration order.
func (Exhaustive) Run(ctx context.Context, sp *Space, _ *rand.Rand, eval Evaluator) error {
	var batch []Point
	flush := func() (bool, error) {
		if len(batch) == 0 {
			return false, nil
		}
		_, err := eval(ctx, batch)
		batch = batch[:0]
		return stop(err)
	}
	var runErr error
	sp.Enumerate(func(p Point) bool {
		// Honor cancellation between points, not just at engine calls —
		// long decode-infeasible stretches never reach the engine.
		if err := ctx.Err(); err != nil {
			runErr = err
			return false
		}
		batch = append(batch, p.Clone())
		if len(batch) < batchSize {
			return true
		}
		done, err := flush()
		runErr = err
		return !done && err == nil
	})
	if runErr != nil {
		return runErr
	}
	_, err := flush()
	return err
}

// Random samples genotypes uniformly until the budget runs out: the
// baseline every guided strategy must beat.
type Random struct{}

// Name identifies the strategy.
func (Random) Name() string { return "random" }

// Run draws seeded uniform batches forever; the budget is the only stop.
func (Random) Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := make([]Point, batchSize)
		for i := range batch {
			batch[i] = sp.RandomPoint(rng.Intn)
		}
		if done, err := stop(func() error { _, err := eval(ctx, batch); return err }()); done {
			return err
		}
	}
}
