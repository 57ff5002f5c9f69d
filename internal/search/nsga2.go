package search

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"hdsmt/internal/pareto"
)

// NSGA2 is an elitist multi-objective evolutionary strategy after Deb's
// NSGA-II: a population evolves by binary-tournament selection on
// (non-domination rank, crowding distance), uniform crossover and
// per-dimension mutation; each generation the parent and offspring
// populations are merged and the best nsgaPop individuals survive — so a
// non-dominated point is never lost to drift. Scores' gain vectors (the
// driver's Score.Objectives) drive dominance, so the same strategy runs
// multi-objective fronts and — degenerately but correctly — scalar
// searches.
type NSGA2 struct{}

const (
	// nsgaPop is the population size (one evaluation batch per
	// generation): small enough that tight budgets still see several
	// generations.
	nsgaPop = 16
	// nsgaCrossProb is the per-offspring uniform-crossover probability.
	nsgaCrossProb = 0.9
	// nsgaStartTries bounds the decode-only feasibility probes per initial
	// individual; probing is free but must terminate on hostile spaces.
	nsgaStartTries = 64
)

// Name identifies the strategy.
func (NSGA2) Name() string { return "nsga2" }

// Run evolves generations until the evaluation budget runs out.
func (NSGA2) Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
	dims := sp.Dims()
	mutProb := 1 / float64(len(dims)) // the canonical per-dimension rate

	// Initial population: feasibility-probed random points (decode-only,
	// free); a hostile space falls back to raw random points, which the
	// evaluator scores as infeasible without charge.
	pop := make([]Point, nsgaPop)
	for i := range pop {
		pop[i] = sp.RandomPoint(rng.Intn)
		for try := 0; try < nsgaStartTries; try++ {
			if _, err := sp.Decode(pop[i]); err == nil {
				break
			}
			pop[i] = sp.RandomPoint(rng.Intn)
		}
	}
	popScores, err := eval(ctx, pop)
	pop = pop[:len(popScores)]
	if done, err := stop(err); done {
		return err
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(pop) == 0 {
			return nil
		}
		rank, crowd := nsgaSort(popScores)

		// Binary tournament on (rank, crowding), uniform crossover,
		// per-dimension mutation.
		tournament := func() int {
			a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
			if nsgaLess(rank, crowd, b, a) {
				return b
			}
			return a
		}
		offspring := make([]Point, nsgaPop)
		for i := range offspring {
			a, b := pop[tournament()], pop[tournament()]
			child := a.Clone()
			if rng.Float64() < nsgaCrossProb {
				for d := range child {
					if rng.Intn(2) == 1 {
						child[d] = b[d]
					}
				}
			}
			for d := range child {
				if rng.Float64() < mutProb {
					child[d] = rng.Intn(dims[d])
				}
			}
			offspring[i] = child
		}
		offScores, err := eval(ctx, offspring)
		offspring = offspring[:len(offScores)]

		// Elitist environmental selection over the merged populations.
		merged := append(append([]Point{}, pop...), offspring...)
		mergedScores := append(append([]Score{}, popScores...), offScores...)
		mRank, mCrowd := nsgaSort(mergedScores)
		order := make([]int, len(merged))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			return nsgaLess(mRank, mCrowd, order[x], order[y])
		})
		keep := nsgaPop
		if keep > len(order) {
			keep = len(order)
		}
		pop = make([]Point, keep)
		popScores = make([]Score, keep)
		for i := 0; i < keep; i++ {
			pop[i] = merged[order[i]]
			popScores[i] = mergedScores[order[i]]
		}

		if done, err := stop(err); done {
			return err
		}
	}
}

// nsgaLess is the crowded-comparison operator: lower rank wins, then larger
// crowding distance, then lower index (a deterministic tie-break so sorts
// cannot depend on anything but the inputs).
func nsgaLess(rank []int, crowd []float64, a, b int) bool {
	if rank[a] != rank[b] {
		return rank[a] < rank[b]
	}
	if crowd[a] != crowd[b] {
		return crowd[a] > crowd[b]
	}
	return a < b
}

// nsgaSort performs fast non-dominated sorting plus per-front crowding.
// Infeasible (or unsettled) scores are ranked behind every real front with
// zero crowding, so they survive selection only when nothing better exists.
func nsgaSort(scores []Score) (rank []int, crowd []float64) {
	n := len(scores)
	rank = make([]int, n)
	crowd = make([]float64, n)

	var feasible []int
	for i, sc := range scores {
		if sc.Settled && sc.Feasible {
			feasible = append(feasible, i)
		} else {
			rank[i] = math.MaxInt // behind every front
		}
	}

	// Dominance counting over the feasible subset (n is a population, not
	// a space: quadratic is fine and deterministic).
	domCount := map[int]int{}    // index -> points dominating it
	dominated := map[int][]int{} // index -> points it dominates
	for _, i := range feasible {
		for _, j := range feasible {
			if i == j {
				continue
			}
			if scores[i].Dominates(scores[j]) {
				dominated[i] = append(dominated[i], j)
			} else if scores[j].Dominates(scores[i]) {
				domCount[i]++
			}
		}
	}
	var front []int
	for _, i := range feasible {
		if domCount[i] == 0 {
			front = append(front, i)
		}
	}
	for level := 0; len(front) > 0; level++ {
		gains := make([]pareto.Vector, len(front))
		for k, i := range front {
			rank[i] = level
			gains[k] = scores[i].Objectives
		}
		for k, d := range pareto.CrowdingDistances(gains) {
			crowd[front[k]] = d
		}
		var next []int
		for _, i := range front {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		front = next
	}
	return rank, crowd
}
