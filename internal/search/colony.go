package search

import "math/rand"

// The pheromone model ACO and PACO share, after Carr & Wang's FaSACO: a
// table holds one trail level per (dimension, choice); each iteration a
// cohort of ants builds points by roulette selection proportional to the
// trails, the trails evaporate, the strategy's own deposit rule lays fresh
// pheromone, and a floor keeps every choice reachable, so the colony
// explores forever instead of collapsing onto an early local optimum.
//
// The parameters are tuned for the tight budgets guided search is for
// (tens to hundreds of evaluations): small cohorts buy more pheromone
// updates per budget, and fast evaporation converges quickly.
const (
	// colonyAnts is the cohort size: one evaluation batch per iteration.
	colonyAnts = 6
	// colonyEvaporation is the per-iteration trail decay.
	colonyEvaporation = 0.45
	// colonyFloor is the minimum trail level per choice.
	colonyFloor = 0.02
)

// trails is a pheromone table, indexed like Space.Dims.
type trails [][]float64

// uniformTrails starts every choice of every dimension at the neutral 1.0.
func uniformTrails(dims []int) trails {
	t := make(trails, len(dims))
	for d, n := range dims {
		t[d] = make([]float64, n)
		for c := range t[d] {
			t[d][c] = 1.0
		}
	}
	return t
}

// cohort builds one iteration's ants, each choice drawn by roulette
// selection proportional to its trail level.
func (t trails) cohort(rng *rand.Rand) []Point {
	ants := make([]Point, colonyAnts)
	for i := range ants {
		pt := make(Point, len(t))
		for d := range t {
			total := 0.0
			for _, v := range t[d] {
				total += v
			}
			r := rng.Float64() * total
			for c, v := range t[d] {
				r -= v
				if r < 0 {
					pt[d] = c
					break
				}
			}
		}
		ants[i] = pt
	}
	return ants
}

// evaporate decays every trail by colonyEvaporation.
func (t trails) evaporate() {
	for d := range t {
		for c := range t[d] {
			t[d][c] *= 1 - colonyEvaporation
		}
	}
}

// deposit lays amount along pt's choices.
func (t trails) deposit(pt Point, amount float64) {
	for d, c := range pt {
		t[d][c] += amount
	}
}

// floor raises every trail to at least colonyFloor.
func (t trails) floor() {
	for d := range t {
		for c := range t[d] {
			if t[d][c] < colonyFloor {
				t[d][c] = colonyFloor
			}
		}
	}
}
