package search

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"hdsmt/internal/pareto"
	"hdsmt/internal/workload"
)

func mustObjectives(t *testing.T, csv string) []pareto.Objective {
	t.Helper()
	objs, err := pareto.Parse(csv)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// scripted adapts a closure into a Strategy for driver-contract tests.
type scripted struct {
	fn func(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error
}

func (scripted) Name() string { return "scripted" }
func (s scripted) Run(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
	return s.fn(ctx, sp, rng, eval)
}

// TestScoreSettledContract is the satellite zero-value-ambiguity test:
// every score an Evaluator returns is Settled — including infeasible
// verdicts and in-batch duplicates — so the zero Score is unambiguously a
// pending placeholder and never a verdict.
func TestScoreSettledContract(t *testing.T) {
	sp := smallSpace(t)
	r := newTestRunner(t)
	feasible := Point{1, 0, 0, 0, 0, 0} // one M6
	empty := Point{0, 0, 0, 0, 0, 0}    // no pipelines: decode-infeasible
	ran := false
	_, err := NewDriver(r).Search(context.Background(), sp, scripted{fn: func(ctx context.Context, sp *Space, rng *rand.Rand, eval Evaluator) error {
		ran = true
		scores, err := eval(ctx, []Point{feasible, empty, feasible.Clone(), feasible.Clone()})
		if err != nil {
			return err
		}
		if len(scores) != 4 {
			t.Fatalf("got %d scores, want 4", len(scores))
		}
		for i, sc := range scores {
			if !sc.Settled {
				t.Errorf("score %d not settled: %+v", i, sc)
			}
		}
		if !scores[0].Feasible || !scores[2].Feasible || !scores[3].Feasible {
			t.Error("feasible point must settle feasible (original, in-batch dup, memo dup)")
		}
		if scores[1].Feasible {
			t.Error("empty machine must settle infeasible")
		}
		if (Score{}).Settled {
			t.Error("the zero Score must read as unsettled")
		}
		if len(scores[0].Objectives) != 1 || scores[0].Objectives[0] != scores[0].Metric("per_area") {
			t.Errorf("scalar run must carry the [per_area] gain vector, got %v", scores[0].Objectives)
		}
		return nil
	}}, Options{Budget: 4, Sim: testSimOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("scripted strategy never ran")
	}
}

// TestScalarOptimumOnFront is the acceptance cross-check at test scale:
// the scalar IPC/mm² optimum of an exhaustive search is a member of the
// exhaustive (ipc, area) front — maximizing a ratio of the two objectives
// cannot be dominated in their plane.
func TestScalarOptimumOnFront(t *testing.T) {
	sp := smallSpace(t)
	objs := mustObjectives(t, "ipc,area")
	r := newTestRunner(t)
	drv := NewDriver(r)

	scalar, err := drv.Search(context.Background(), sp, Exhaustive{}, Options{Sim: testSimOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Best == nil {
		t.Fatal("scalar exhaustive found nothing")
	}
	// Same runner: the multi-objective pass re-uses every simulation.
	mo, err := drv.Search(context.Background(), sp, Exhaustive{}, Options{
		Sim: testSimOptions(), Objectives: objs, ArchiveCap: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mo.Simulations != 0 {
		t.Errorf("multi-objective pass executed %d fresh simulations, want 0 (warm engine)", mo.Simulations)
	}
	if len(mo.Front) == 0 {
		t.Fatal("empty front")
	}
	onFront := false
	for _, fp := range mo.Front {
		if fp.Config == scalar.Best.Config && fp.Policy == scalar.Best.Policy {
			onFront = true
		}
	}
	if !onFront {
		t.Errorf("scalar optimum %s missing from the %d-point (ipc, area) front", scalar.Best.Name(), len(mo.Front))
	}
	assertMutuallyNonDominated(t, objs, mo.Front)
}

// assertMutuallyNonDominated fails if any two front members dominate each
// other under the given objectives.
func assertMutuallyNonDominated(t *testing.T, objs []pareto.Objective, front []TrajectoryPoint) {
	t.Helper()
	if err := CheckFront(objs, front); err != nil {
		t.Error(err)
	}
}

// TestMultiObjectiveDeterminism: fixed seed, byte-identical result JSON —
// front and hypervolume trajectory included — for both new strategies, on
// a cold engine each time.
func TestMultiObjectiveDeterminism(t *testing.T) {
	sp := smallSpace(t)
	for _, name := range []string{"nsga2", "paco"} {
		t.Run(name, func(t *testing.T) {
			run := func() []byte {
				st, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				r := newTestRunner(t)
				res, err := NewDriver(r).Search(context.Background(), sp, st, Options{
					Budget: 18, Seed: 42, Sim: testSimOptions(),
					Objectives: mustObjectives(t, "ipc,area"),
				})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			a, b := run(), run()
			if string(a) != string(b) {
				t.Errorf("same seed, different JSON:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestMultiObjectiveRun pins the front contract on a budgeted NSGA-II run:
// non-empty mutually non-dominated front, monotone hypervolume trajectory
// (the archive never prunes below its default capacity at this budget),
// and a scalar incumbent maintained alongside.
func TestMultiObjectiveRun(t *testing.T) {
	sp := smallSpace(t)
	objs := mustObjectives(t, "ipc,area")
	r := newTestRunner(t)
	res, err := NewDriver(r).Search(context.Background(), sp, NSGA2{}, Options{
		Budget: 24, Seed: 7, Sim: testSimOptions(), Objectives: objs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Best == nil {
		t.Error("multi-objective run must still track the scalar incumbent")
	}
	if got, want := res.Objectives, []string{"ipc", "area"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("objectives = %v", got)
	}
	assertMutuallyNonDominated(t, objs, res.Front)
	if len(res.Hypervolume) == 0 {
		t.Fatal("no hypervolume trajectory")
	}
	last := 0.0
	lastEvals := 0
	for _, hp := range res.Hypervolume {
		if hp.Hypervolume < last {
			t.Errorf("hypervolume fell from %v to %v", last, hp.Hypervolume)
		}
		if hp.Evaluations < lastEvals {
			t.Errorf("hypervolume trajectory out of order: %d after %d", hp.Evaluations, lastEvals)
		}
		last, lastEvals = hp.Hypervolume, hp.Evaluations
	}
}

// TestFairnessObjective: a three-objective run prices the alone-run
// baselines into its submissions and lands fairness values in (0, 1+ε] on
// every front member.
func TestFairnessObjective(t *testing.T) {
	sp := NewSpace(2, 0, testWorkloads(t)) // 9 machines, 8 chargeable
	objs := mustObjectives(t, "ipc,area,fairness")
	r := newTestRunner(t)
	res, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 5, Seed: 11, Sim: testSimOptions(), Objectives: objs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each charged evaluation submits 1 shared + 2 alone runs for the one
	// 2-thread workload.
	if want := uint64(res.Evaluations * 3); res.Submitted != want {
		t.Errorf("submitted = %d, want %d (1 shared + 2 alone per evaluation)", res.Submitted, want)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, fp := range res.Front {
		if fp.Metric("fairness") <= 0 || fp.Metric("fairness") > 1.5 {
			t.Errorf("%s fairness = %v, want within (0, 1.5]", fp.Name(), fp.Metric("fairness"))
		}
	}
	assertMutuallyNonDominated(t, objs, res.Front)
}

// TestPriors pins the seeding satellite's prior shape: slot dimensions are
// tilted by each model's width-per-area (M2 strongest for the calibrated
// areas, "none" neutral), enriched axes stay uniform.
func TestPriors(t *testing.T) {
	sp := smallSpace(t)
	priors := sp.Priors()
	if len(priors) != len(sp.Dims()) {
		t.Fatalf("priors cover %d dims, space has %d", len(priors), len(sp.Dims()))
	}
	for d := 0; d < sp.MaxPipes; d++ {
		w := priors[d]
		if w[0] != 1.0 {
			t.Errorf("slot %d: 'none' weight = %v, want neutral 1.0", d, w[0])
		}
		// Models are [M6, M4, M2]; M2 has the best width/area under the
		// calibrated model, so its trail must start highest, at 1+boost.
		if w[3] != 1+priorBoost {
			t.Errorf("slot %d: M2 weight = %v, want %v", d, w[3], 1+priorBoost)
		}
		if !(w[3] > w[2] && w[1] > w[2]) {
			t.Errorf("slot %d: prior order wrong: M6 %v M4 %v M2 %v", d, w[1], w[2], w[3])
		}
	}
	for d := sp.MaxPipes; d < len(priors); d++ {
		for c, v := range priors[d] {
			if v != 1.0 {
				t.Errorf("enriched dim %d choice %d weight = %v, want uniform 1.0", d, c, v)
			}
		}
	}

	// The candidate-level proxy prefers the known optimum family: 2M2
	// machines beat 3M4 on width per area.
	c2m2, err := sp.Decode(Point{3, 3, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	c3m4, err := sp.Decode(Point{2, 2, 2, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if IssueWidthProxy(c2m2) <= IssueWidthProxy(c3m4) {
		t.Errorf("proxy(2M2)=%v <= proxy(3M4)=%v", IssueWidthProxy(c2m2), IssueWidthProxy(c3m4))
	}
}

// TestSeededStrategiesComplete: the seeded variants keep the Strategy
// contract — right names, deterministic completion, a feasible incumbent.
func TestSeededStrategiesComplete(t *testing.T) {
	sp := smallSpace(t)
	for _, name := range []string{"aco-seeded", "hillclimb-seeded"} {
		t.Run(name, func(t *testing.T) {
			st, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Name() != name {
				t.Errorf("Name() = %q, want %q", st.Name(), name)
			}
			r := newTestRunner(t)
			res, err := NewDriver(r).Search(context.Background(), sp, st,
				Options{Budget: 12, Seed: 3, Sim: testSimOptions()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == nil {
				t.Fatal("seeded search found nothing")
			}
		})
	}
}

// TestSpecialize: per-class searches share the generic search's engine and
// report a comparable generic incumbent per class.
func TestSpecialize(t *testing.T) {
	wls := []workload.Workload{
		workload.MustByName("2W1"), // ILP
		workload.MustByName("2W4"), // MEM
		workload.MustByName("2W7"), // MIX
	}
	sp := NewSpace(2, 0, wls)
	r := newTestRunner(t)
	rep, err := NewDriver(r).Specialize(context.Background(), sp, NSGA2{}, Options{
		Budget: 8, Seed: 5, Sim: testSimOptions(),
		Objectives: mustObjectives(t, "ipc,area"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generic == nil || rep.Generic.Best == nil {
		t.Fatal("no generic incumbent")
	}
	if len(rep.Classes) != 3 {
		t.Fatalf("classes = %d, want ILP+MEM+MIX", len(rep.Classes))
	}
	for i, want := range []string{"ILP", "MEM", "MIX"} {
		cf := rep.Classes[i]
		if cf.Class != want {
			t.Errorf("class %d = %s, want %s", i, cf.Class, want)
		}
		if cf.Result == nil || cf.Result.Best == nil {
			t.Errorf("%s: no specialized incumbent", want)
			continue
		}
		if cf.GenericBest == nil {
			t.Errorf("%s: generic incumbent not scored on the class", want)
			continue
		}
		// The specialized machine can only match or beat the generic one
		// on its own class when the search found the generic point too;
		// at tiny budgets we only assert the comparison is well-formed.
		if cf.GenericBest.Metric("per_area") <= 0 || cf.Result.Best.Metric("per_area") <= 0 {
			t.Errorf("%s: degenerate per-area values %v / %v", want, cf.GenericBest.Metric("per_area"), cf.Result.Best.Metric("per_area"))
		}
	}
	if got := len(rep.Gains()); got != 3 {
		t.Errorf("gains = %d entries", got)
	}
}
