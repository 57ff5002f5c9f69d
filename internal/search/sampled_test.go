package search

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/metrics"
	"hdsmt/internal/pareto"
	"hdsmt/internal/sim"
)

// testTriageParams samples 500 detailed instructions per 2 000-instruction
// period.
func testTriageParams() core.SampleParams {
	return core.SampleParams{Period: 2_000, Detail: 500, Warm: 500}
}

// testTriageSimOptions is long enough for matched-coverage triage to
// sample: 4 whole periods of testTriageParams fit in the budget.
func testTriageSimOptions() sim.Options {
	return sim.Options{Budget: 8_000, Warmup: 1_000}
}

// journaledSearch runs one search on a fresh engine with its checkpoint
// journal on, and returns the Result with every simulation the engine
// executed, read back from the journal once the engine has closed.
func journaledSearch(t *testing.T, sp Space, st Strategy, opts Options) (*Result, []core.Results) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	r, err := sim.NewRunner(engine.Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewDriver(r).Search(context.Background(), sp, st, opts)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var runs []core.Results
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var e struct {
			Result core.Results `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, e.Result)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return res, runs
}

// sampledRuns counts the sampled simulations among runs.
func sampledRuns(runs []core.Results) int {
	n := 0
	for _, r := range runs {
		if r.Sampled != nil {
			n++
		}
	}
	return n
}

// checkExactBudgets asserts that every exact simulation among runs —
// shared and alone alike — ran the full exact budget: its leading thread
// retired exactly budget measured instructions. Only sampled shared runs
// may be shorter.
func checkExactBudgets(t *testing.T, runs []core.Results, budget uint64) {
	t.Helper()
	for _, r := range runs {
		if r.Sampled != nil {
			continue
		}
		var lead uint64
		for _, c := range r.Committed {
			lead = max(lead, c)
		}
		if lead != budget {
			t.Errorf("exact %d-thread run retired %d instructions, want the full budget %d",
				len(r.Committed), lead, budget)
		}
	}
}

// noCompanions asserts a settled point carries only exact values — the
// incumbent/archive contract of the triage policy.
func noCompanions(t *testing.T, label string, v metrics.Values) {
	t.Helper()
	for key := range v {
		if metrics.IsMoEKey(key) {
			t.Errorf("%s carries sampled margin %q = %v; incumbents and archive members must settle exact",
				label, key, v[key])
		}
	}
}

// TestSampledTriageScalar pins the accuracy/budget policy on a scalar
// search: every charged candidate is triaged with sampled simulations,
// only promising ones are re-simulated in full, and the incumbent
// trajectory holds exact measurements only.
func TestSampledTriageScalar(t *testing.T) {
	sp := smallSpace(t)
	res, runs := journaledSearch(t, sp, Random{},
		Options{Budget: 12, Seed: 5, Sim: testTriageSimOptions(), Sample: testTriageParams()})
	if res.Best == nil {
		t.Fatal("no feasible point found")
	}
	if sampledRuns(runs) == 0 {
		t.Error("no sampled simulation ran: triage fell back to exact runs")
	}
	checkExactBudgets(t, runs, testTriageSimOptions().Budget)
	if res.Triaged != res.Evaluations {
		t.Errorf("triaged %d of %d charged evaluations, want all", res.Triaged, res.Evaluations)
	}
	if res.Promoted < 1 || res.Promoted > res.Triaged {
		t.Errorf("promoted %d of %d triaged, want within [1, triaged]", res.Promoted, res.Triaged)
	}
	for _, tp := range res.Trajectory {
		noCompanions(t, "incumbent "+tp.Name(), tp.Values)
	}

	// An exact run under the same seed visits the same candidates; the
	// triage run must not settle a *better* incumbent than full simulation
	// supports (its incumbent is exact, so it appears in the exact run's
	// reachable set).
	exact, err := NewDriver(newTestRunner(t)).Search(context.Background(), sp, Random{},
		Options{Budget: 12, Seed: 5, Sim: testTriageSimOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Triaged != 0 || exact.Promoted != 0 {
		t.Errorf("exact run reports triage counters: %d/%d", exact.Triaged, exact.Promoted)
	}
	if res.Best.Metric("per_area") > exact.Best.Metric("per_area")+1e-12 {
		t.Errorf("triaged incumbent %.6f beats the exact run's %.6f — settled estimates leaked into the trajectory",
			res.Best.Metric("per_area"), exact.Best.Metric("per_area"))
	}
}

// TestSampledTriageMultiObjective: archive members settle exact, the front
// invariant holds, and the run reproduces byte for byte.
func TestSampledTriageMultiObjective(t *testing.T) {
	objs, err := pareto.Parse("ipc,area")
	if err != nil {
		t.Fatal(err)
	}
	sp := smallSpace(t)
	run := func() (*Result, []core.Results) {
		return journaledSearch(t, sp, Random{},
			Options{Budget: 10, Seed: 7, Sim: testTriageSimOptions(),
				Objectives: objs, Sample: testTriageParams()})
	}
	res, runs := run()
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if sampledRuns(runs) == 0 {
		t.Error("no sampled simulation ran: triage fell back to exact runs")
	}
	checkExactBudgets(t, runs, testTriageSimOptions().Budget)
	if err := CheckFront(objs, res.Front); err != nil {
		t.Error(err)
	}
	for _, tp := range res.Front {
		noCompanions(t, "front member "+tp.Name(), tp.Values)
	}
	if res.Triaged != res.Evaluations || res.Promoted < 1 {
		t.Errorf("triage ledger %d/%d over %d evaluations", res.Promoted, res.Triaged, res.Evaluations)
	}

	a, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := run()
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("same seed, different triaged-run JSON:\n%s\n%s", a, b)
	}
}

// TestSampledTriageFallback: when the simulation budget holds fewer than
// two sampling periods, triage runs the exact request itself — no request
// carries sampling parameters — and the search settles exactly what an
// exact search with the same seed settles, at the same simulation cost.
func TestSampledTriageFallback(t *testing.T) {
	objs, err := pareto.Parse("ipc,area")
	if err != nil {
		t.Fatal(err)
	}
	if b, p := testSimOptions().Budget, testTriageParams().Period; b >= 2*p {
		t.Fatalf("fixture budget %d holds two periods of %d", b, p)
	}
	for _, tc := range []struct {
		name string
		objs []pareto.Objective
	}{{"scalar", nil}, {"multi-objective", objs}} {
		t.Run(tc.name, func(t *testing.T) {
			sp := smallSpace(t)
			opts := Options{Budget: 12, Seed: 5, Sim: testSimOptions(), Objectives: tc.objs}
			exact, _ := journaledSearch(t, sp, Random{}, opts)
			opts.Sample = testTriageParams()
			res, runs := journaledSearch(t, sp, Random{}, opts)

			if len(runs) == 0 {
				t.Fatal("empty engine journal")
			}
			if n := sampledRuns(runs); n != 0 {
				t.Errorf("%d of %d simulations were sampled, want none", n, len(runs))
			}
			checkExactBudgets(t, runs, opts.Sim.Budget)
			if res.Triaged != res.Evaluations {
				t.Errorf("triaged %d of %d charged evaluations, want all", res.Triaged, res.Evaluations)
			}
			if !reflect.DeepEqual(res.Best, exact.Best) {
				t.Errorf("best %+v, exact search %+v", res.Best, exact.Best)
			}
			if !reflect.DeepEqual(res.Trajectory, exact.Trajectory) {
				t.Errorf("trajectory differs from the exact search's:\n%+v\n%+v", res.Trajectory, exact.Trajectory)
			}
			if !reflect.DeepEqual(res.Front, exact.Front) {
				t.Errorf("front differs from the exact search's:\n%+v\n%+v", res.Front, exact.Front)
			}
			if res.Evaluations != exact.Evaluations || res.Simulations != exact.Simulations {
				t.Errorf("cost %d evaluations / %d simulations, exact search %d / %d",
					res.Evaluations, res.Simulations, exact.Evaluations, exact.Simulations)
			}
			// An exact triage score is final: no promotion resubmits it.
			if res.Promoted != 0 {
				t.Errorf("promoted %d exact triage scores, want 0", res.Promoted)
			}
			if res.Submitted != exact.Submitted || res.CacheHitRate != exact.CacheHitRate {
				t.Errorf("submitted %d (hit rate %v), exact search %d (%v)",
					res.Submitted, res.CacheHitRate, exact.Submitted, exact.CacheHitRate)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSampledTriageMatchedCoverage: every sampled triage run covers the
// whole sampling periods that fit in the exact run's budget —
// units×Period ≤ Budget < (units+1)×Period — so it estimates the run it
// stands in for. The objectives price fairness, so the search also runs
// alone baselines; those, like every other exact run, must run the full
// budget rather than the sampled run's shortened one.
func TestSampledTriageMatchedCoverage(t *testing.T) {
	objs, err := pareto.Parse("ipc,fairness")
	if err != nil {
		t.Fatal(err)
	}
	simOpt := sim.Options{Budget: 7_000, Warmup: 1_000} // 3 whole periods and a remainder
	sample := testTriageParams()
	_, runs := journaledSearch(t, smallSpace(t), Random{},
		Options{Budget: 6, Seed: 3, Sim: simOpt, Objectives: objs, Sample: sample})
	if sampledRuns(runs) == 0 {
		t.Fatal("no sampled simulation ran")
	}
	alone := 0
	for _, r := range runs {
		if r.Sampled == nil && len(r.Committed) == 1 {
			alone++
		}
	}
	if alone == 0 {
		t.Fatal("no alone baseline ran")
	}
	checkExactBudgets(t, runs, simOpt.Budget)
	for _, r := range runs {
		s := r.Sampled
		if s == nil {
			continue
		}
		if s.Period != sample.Period || s.Covered != uint64(s.Units)*s.Period {
			t.Errorf("sampled run: %d units of period %d cover %d", s.Units, s.Period, s.Covered)
		}
		if s.Covered > simOpt.Budget || simOpt.Budget >= s.Covered+s.Period {
			t.Errorf("sampled run covers %d instructions (%d units of %d), want the whole periods in budget %d",
				s.Covered, s.Units, s.Period, simOpt.Budget)
		}
	}
}
