package search

import (
	"context"
	"math/rand"
)

// ACO is an ant-colony optimizer over the space's categorical dimensions,
// after Carr & Wang's FaSACO: it releases cohorts from the shared
// pheromone model (trails), evaluating each cohort as one engine batch,
// and after evaporation the iteration's best ant plus the global best
// deposit pheromone scaled by solution quality (elitism).
type ACO struct {
	// Seeded initializes the trails from the space's area-normalized
	// issue-width prior (Space.Priors) instead of uniform levels, biasing
	// the first cohorts toward width-per-mm²-efficient machines.
	Seeded bool
}

const (
	// acoDeposit scales the pheromone laid by the iteration and global best.
	acoDeposit = 1.0
	// acoElite weights the global best's deposit relative to the iteration
	// best's: a strong elite converges quickly on tight budgets.
	acoElite = 3.0
)

// NewACO returns the unseeded colony. It is kept for the perfbench module,
// which builds its search workload with it; ACO{} is the same strategy.
func NewACO() ACO { return ACO{} }

// Name identifies the strategy.
func (a ACO) Name() string {
	if a.Seeded {
		return "aco-seeded"
	}
	return "aco"
}

// Run releases ant cohorts until the evaluation budget runs out.
func (a ACO) Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
	tau := uniformTrails(sp.Dims())
	if a.Seeded {
		tau = sp.Priors()
	}

	var best Point
	var bestScore Score
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ants := tau.cohort(rng)
		scores, err := eval(ctx, ants)

		iterBest := -1
		for i := range scores {
			if !scores[i].Feasible {
				continue
			}
			if iterBest < 0 || scores[i].Better(scores[iterBest]) {
				iterBest = i
			}
			if best == nil || scores[i].Better(bestScore) {
				best, bestScore = ants[i].Clone(), scores[i]
			}
		}

		// Quality is normalized by the global best so deposits stay
		// O(acoDeposit) as absolute IPC/mm² varies.
		tau.evaporate()
		if iterBest >= 0 && bestScore.Metric("per_area") > 0 {
			tau.deposit(ants[iterBest], acoDeposit*scores[iterBest].Metric("per_area")/bestScore.Metric("per_area"))
		}
		if best != nil {
			tau.deposit(best, acoDeposit*acoElite)
		}
		tau.floor()

		if done, err := stop(err); done {
			return err
		}
	}
}
