package search

import (
	"context"
	"math/rand"
)

// HillClimb is steepest-ascent hill-climbing with random restarts: from a
// seeded start, every single-dimension mutation is evaluated as one batch
// (free parallelism through the engine) and the walk moves to the best
// improving neighbor, restarting from a fresh random point at each local
// optimum. Memoized revisits cost nothing, so climbs that cross earlier
// trajectories stay cheap.
type HillClimb struct {
	// Seeded starts the *first* climb from the best of its feasible probes
	// under the area-normalized issue-width proxy (IssueWidthProxy)
	// instead of the first one — the same decode-only probes, ranked by
	// the ROADMAP's prior rather than taken in arrival order. Restarts
	// revert to uniform starts: re-ranking every restart would keep
	// landing in the proxy-best basin, spinning on free memoized revisits
	// instead of exploring.
	Seeded bool
}

// hillClimbStartTries bounds the decode-only feasibility probes per
// restart. Probing is free — no simulation — but must terminate on spaces
// with no feasible points.
const hillClimbStartTries = 256

// Name identifies the strategy.
func (h HillClimb) Name() string {
	if h.Seeded {
		return "hillclimb-seeded"
	}
	return "hillclimb"
}

// Run climbs until the evaluation budget runs out.
func (h HillClimb) Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
	dims := sp.Dims()
	// fallbackStart hands out feasible starts in enumeration order when
	// random probing keeps missing (tight area caps can push the feasible
	// fraction below 1/hillClimbStartTries): the nth call yields the nth
	// decodable point, and nil once the enumeration is spent — ending the
	// search instead of aborting a space that does have feasible machines.
	fallbacks := 0
	fallbackStart := func() Point {
		var start Point
		skip := fallbacks
		sp.Enumerate(func(p Point) bool {
			if _, err := sp.Decode(p); err != nil {
				return true
			}
			if skip > 0 {
				skip--
				return true
			}
			start = p.Clone()
			return false
		})
		fallbacks++
		return start
	}
	seedNext := h.Seeded
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A feasible start, by decode-only probing; the seeded first climb
		// ranks the probes by the issue-width proxy and keeps the best.
		var start Point
		bestProxy := 0.0
		for i := 0; i < hillClimbStartTries; i++ {
			p := sp.RandomPoint(rng.Intn)
			c, err := sp.Decode(p)
			if err != nil {
				continue
			}
			if !seedNext {
				start = p
				break
			}
			if proxy := IssueWidthProxy(c); start == nil || proxy > bestProxy {
				start, bestProxy = p, proxy
			}
		}
		seedNext = false
		if start == nil {
			if start = fallbackStart(); start == nil {
				return nil // every feasible start exhausted: done
			}
		}
		scores, err := eval(ctx, []Point{start})
		if done, err := stop(err); done {
			return err
		}
		cur, curScore := start, scores[0]

		for {
			// All single-dimension mutations of the current point.
			var neighbors []Point
			for d := range dims {
				for c := 0; c < dims[d]; c++ {
					if c == cur[d] {
						continue
					}
					n := cur.Clone()
					n[d] = c
					neighbors = append(neighbors, n)
				}
			}
			scores, err := eval(ctx, neighbors)
			best := -1
			for i := range scores {
				if scores[i].Better(curScore) && (best < 0 || scores[i].Better(scores[best])) {
					best = i
				}
			}
			if best >= 0 {
				cur, curScore = neighbors[best], scores[best]
			}
			if done, err := stop(err); done {
				return err
			}
			if best < 0 {
				break // local optimum: restart
			}
		}
	}
}
