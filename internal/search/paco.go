package search

import (
	"context"
	"math/rand"

	"hdsmt/internal/pareto"
)

// PACO is a Pareto ant-colony strategy: ACO's pheromone model (trails)
// with the deposit rule replaced by an archive of mutually non-dominated
// solutions — every iteration, each archive member deposits an equal share
// of the colony's pheromone budget along its own genotype, so the trails
// model the whole front rather than collapsing onto one scalar incumbent.
// Crowding-distance pruning bounds the archive, keeping deposits spread
// across the front's span rather than its densest cluster.
type PACO struct{}

const (
	// pacoDeposit is the colony's per-iteration pheromone budget, split
	// evenly across archive members: double ACO's, so each member's share
	// stays visible against evaporation.
	pacoDeposit = 2.0
	// pacoArchiveCap bounds the strategy's internal archive (crowding
	// pruning beyond it).
	pacoArchiveCap = 24
)

// Name identifies the strategy.
func (PACO) Name() string { return "paco" }

// Run releases ant cohorts until the evaluation budget runs out.
func (PACO) Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
	tau := uniformTrails(sp.Dims())

	// The archive lives in gain space (Score.Objectives is already
	// maximization-oriented), keyed by the decoded candidate's canonical
	// key — permuted genotypes of one machine must share a slot, or a
	// duplicated member would double its deposit and crowd a distinct
	// front point out of the bounded archive. Members carry their Point as
	// the payload so they can deposit.
	var archive *pareto.Archive

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ants := tau.cohort(rng)
		scores, err := eval(ctx, ants)

		for i := range scores {
			if !scores[i].Feasible {
				continue
			}
			cand, decodeErr := sp.Decode(ants[i])
			if decodeErr != nil {
				continue // cannot happen for a feasible score; stay safe
			}
			if archive == nil {
				archive = pareto.NewArchive(pareto.GainObjectives(len(scores[i].Objectives)), pacoArchiveCap)
			}
			archive.Add(pareto.Entry{Key: cand.Key(), Vector: scores[i].Objectives.Clone(), Payload: ants[i].Clone()})
		}

		// Evaporate, then let the front deposit: an equal share of the
		// colony budget per member, laid along the member's own genotype.
		tau.evaporate()
		if archive != nil && archive.Len() > 0 {
			share := pacoDeposit / float64(archive.Len())
			for _, m := range archive.Members() {
				tau.deposit(m.Payload.(Point), share)
			}
		}
		tau.floor()

		if done, err := stop(err); done {
			return err
		}
	}
}
