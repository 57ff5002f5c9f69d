package search

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/metrics"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// testSimOptions keeps per-point simulations tiny; the comparative shape
// of the space is stable at this scale (same property TestBudgetInsensitivity
// pins for the paper's figures).
func testSimOptions() sim.Options {
	return sim.Options{Budget: 2_000, Warmup: 1_000}
}

func testWorkloads(t *testing.T) []workload.Workload {
	t.Helper()
	return []workload.Workload{workload.MustByName("2W7")}
}

// smallSpace is the shared test space: ≤ 3 pipelines with queue-size and
// remap axes — 384 genotypes, 114 distinct machines, enumerable in
// seconds, rich enough for the guided strategies to earn their keep.
func smallSpace(t *testing.T) Space {
	t.Helper()
	sp := NewSpace(3, 0, testWorkloads(t))
	sp.QueueScales = []int{75, 100, 125}
	sp.RemapIntervals = []uint64{0, 2_048}
	return sp
}

func newTestRunner(t *testing.T) *sim.Runner {
	t.Helper()
	r, err := sim.NewRunner(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestSpaceSizeAndCandidates(t *testing.T) {
	sp := NewSpace(3, 0, testWorkloads(t))
	// 3 slots × (3 models + none) = 4³ = 64 genotypes on single-choice axes.
	if got := sp.Size(); got != 64 {
		t.Errorf("Size = %d, want 64", got)
	}
	// Distinct machines: multisets of {M6,M4,M2} of size 1..3 = 19.
	if got := len(sp.Candidates()); got != 19 {
		t.Errorf("candidates = %d, want 19", got)
	}

	sp = smallSpace(t)
	if got := sp.Size(); got != 384 {
		t.Errorf("enriched Size = %d, want 384 (64 × 3 queue scales × 2 remaps)", got)
	}
	// 19 multisets × 3 queue scales × 2 remaps = 114 distinct machines.
	if got := len(sp.Candidates()); got != 114 {
		t.Errorf("enriched candidates = %d, want 114", got)
	}
}

func TestSpaceValidate(t *testing.T) {
	ok := smallSpace(t)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.MaxPipes = 0
	if err := bad.Validate(); err == nil {
		t.Error("MaxPipes 0 must fail")
	}
	bad = ok
	bad.Workloads = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty workloads must fail")
	}
	bad = ok
	bad.Policies = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty policy axis must fail")
	}
	bad = ok
	bad.Policies = []string{"NOPE"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy must fail")
	}
	bad = ok
	bad.AreaCap = -5
	if err := bad.Validate(); err == nil {
		t.Error("negative area cap must fail")
	}
	// A cap below the smallest machine the space builds (1M2 at the
	// narrowest scales) admits none: rejected, as explore -areacap 1 is.
	// At exactly that area the smallest machine fits, and no machine of
	// the space is smaller.
	scaled := EnrichedSpace(2, 0, ok.Workloads)
	one, err := config.ScaleModel(config.M2, 75, 75)
	if err != nil {
		t.Fatal(err)
	}
	min1 := config.NewMicroarch(one)
	smallest := area.MustTotal(min1)
	for _, c := range scaled.Candidates() {
		if c.Area < smallest {
			t.Errorf("%s has area %.2f, below the smallest single-pipeline machine's %.2f", c.Name(), c.Area, smallest)
		}
	}
	bad = scaled
	bad.AreaCap = 1
	if err := bad.Validate(); err == nil {
		t.Error("area cap 1 mm² must fail: no machine fits")
	}
	bad.AreaCap = math.Nextafter(smallest, 0)
	if err := bad.Validate(); err == nil {
		t.Errorf("area cap just below %.4f mm² must fail", smallest)
	}
	bad.AreaCap = smallest
	if err := bad.Validate(); err != nil {
		t.Errorf("area cap %.4f mm² rejects %s: %v", smallest, min1.Name, err)
	}
	cands := bad.Candidates()
	if len(cands) == 0 {
		t.Errorf("area cap %.4f mm² admits no machine, want %s", smallest, min1.Name)
	}
	for _, c := range cands {
		if c.Cfg.Name != min1.Name {
			t.Errorf("area cap %.4f mm² admits %s, want only %s", smallest, c.Name(), min1.Name)
		}
	}
	bad = ok
	bad.QueueScales = []int{0}
	if err := bad.Validate(); err == nil {
		t.Error("zero queue scale must fail")
	}
	// Absurd spaces are rejected up front rather than wedging the census
	// in an hours-long enumeration (Size saturates instead of wrapping).
	bad = ok
	bad.MaxPipes = config.MaxPipelines + 1
	if err := bad.Validate(); err == nil {
		t.Error("MaxPipes above config.MaxPipelines must fail")
	}
	bad = ok
	bad.MaxPipes = config.MaxPipelines
	if bad.Size() <= 0 {
		t.Errorf("Size overflowed to %d", bad.Size())
	}
	if err := bad.Validate(); err == nil {
		t.Error("a space beyond MaxSpaceSize must fail")
	}
}

// TestDecodeCanonicalization: genotypes differing only in slot order (or
// in axes that normalize away) decode to the same content-addressed key.
func TestDecodeCanonicalization(t *testing.T) {
	sp := smallSpace(t)
	// Slots (M6, M4, -) and (M4, -, M6): same multiset {M6, M4}.
	a, err := sp.Decode(Point{1, 2, 0, 0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Decode(Point{2, 0, 1, 0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("slot permutations decode to different keys: %s vs %s", a.Name(), b.Name())
	}
	if a.Cfg.Name != "1M6+1M4" {
		t.Errorf("decoded name = %q", a.Cfg.Name)
	}

	// The empty machine is infeasible.
	if _, err := sp.Decode(Point{0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("empty machine must be infeasible")
	} else if _, ok := err.(ErrInfeasible); !ok {
		t.Errorf("want ErrInfeasible, got %v", err)
	}

	// Area caps bite.
	capped := sp
	capped.AreaCap = 1
	if _, err := capped.Decode(Point{1, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("area cap must reject every machine at 1 mm²")
	}

	// A remap interval on a monolithic machine normalizes to 0.
	mono := NewSpace(1, 0, testWorkloads(t))
	mono.Models = []config.Model{config.M8}
	mono.RemapIntervals = []uint64{0, 2_048}
	withRemap, err := mono.Decode(Point{1, 0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if withRemap.Remap != 0 {
		t.Errorf("monolithic remap = %d, want 0", withRemap.Remap)
	}
	static, err := mono.Decode(Point{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if withRemap.Key() != static.Key() {
		t.Error("monolithic remap choices must share one key")
	}

	// A policy equal to the machine's default normalizes to "", so the
	// same machine is never charged twice via two policy spellings.
	pol := smallSpace(t)
	pol.Policies = []string{"", "L1MCOUNT", "ICOUNT2.8"}
	deflt, err := pol.Decode(Point{1, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := pol.Decode(Point{1, 0, 0, 1, 0, 0, 0}) // L1MCOUNT: multipipe default
	if err != nil {
		t.Fatal(err)
	}
	if spelled.Policy != "" || spelled.Key() != deflt.Key() {
		t.Errorf("explicit default policy not normalized: %q (keys equal: %v)",
			spelled.Policy, spelled.Key() == deflt.Key())
	}
	override, err := pol.Decode(Point{1, 0, 0, 2, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if override.Policy != "ICOUNT2.8" || override.Key() == deflt.Key() {
		t.Error("real policy override must keep its own key")
	}
}

// TestExhaustiveMatchesDirectRanking cross-checks the exhaustive strategy
// against a ranking computed here without the driver: every candidate with
// enough contexts, scored as the harmonic mean of its Runner.Run IPCs under
// the default mapping divided by its area. The exhaustive optimum must be
// that ranking's argmax, with the same score.
func TestExhaustiveMatchesDirectRanking(t *testing.T) {
	wls := testWorkloads(t)
	sp := NewSpace(3, 0, wls)
	opt := testSimOptions()
	ctx := context.Background()

	r := newTestRunner(t)
	res, err := NewDriver(r).Search(ctx, sp, Exhaustive{}, Options{Sim: opt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("exhaustive found nothing")
	}

	bestName, bestPerArea := "", 0.0
	for _, c := range sp.Candidates() {
		if !sp.FitsWorkloads(c) {
			continue
		}
		ipcs := make([]float64, len(wls))
		for i, w := range wls {
			m, err := sim.DefaultMapping(c.Cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			run, err := r.Run(ctx, c.Cfg, w, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			ipcs[i] = run.IPC
		}
		a, err := area.Total(c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if perArea := metrics.HMean(ipcs) / a; perArea > bestPerArea {
			bestName, bestPerArea = c.Cfg.Name, perArea
		}
	}
	if bestName != res.Best.Config {
		t.Errorf("exhaustive best %s, direct ranking puts %s first", res.Best.Config, bestName)
	}
	if diff := bestPerArea - res.Best.Metric("per_area"); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("objective mismatch: %v vs %v", res.Best.Metric("per_area"), bestPerArea)
	}
	// 19 machines, minus 1M2 (one context cannot hold the 2-thread
	// workload — context-infeasible, never simulated).
	if res.Evaluations != 18 {
		t.Errorf("evaluations = %d, want 18", res.Evaluations)
	}
	if res.Infeasible == 0 {
		t.Error("1M2 should have been counted infeasible")
	}
}

// TestStrategiesFindOptimum is the satellite correctness test: on the
// small space, every strategy — budgeted to 30% of the exhaustive
// simulation count for the guided ones — lands on the machine the
// exhaustive baseline proves optimal.
func TestStrategiesFindOptimum(t *testing.T) {
	sp := smallSpace(t)
	opt := testSimOptions()

	exhRunner := newTestRunner(t)
	exh, err := NewDriver(exhRunner).Search(context.Background(), sp, Exhaustive{}, Options{Sim: opt})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Best == nil {
		t.Fatal("exhaustive found nothing")
	}
	budget := exh.Evaluations * 30 / 100

	for _, tc := range []struct {
		name string
		seed int64
	}{
		{"hillclimb", 1},
		{"aco", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			r := newTestRunner(t) // fresh engine: simulation counts are honest
			res, err := NewDriver(r).Search(context.Background(), sp, st, Options{Budget: budget, Seed: tc.seed, Sim: opt})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == nil {
				t.Fatal("no feasible point found")
			}
			if res.Best.Config != exh.Best.Config || res.Best.Remap != exh.Best.Remap || res.Best.Policy != exh.Best.Policy {
				t.Errorf("best = %s r%d %q, exhaustive optimum = %s r%d %q",
					res.Best.Config, res.Best.Remap, res.Best.Policy,
					exh.Best.Config, exh.Best.Remap, exh.Best.Policy)
			}
			if limit := exh.Simulations * 30 / 100; res.Simulations > limit {
				t.Errorf("simulations = %d, want <= %d (30%% of exhaustive's %d)",
					res.Simulations, limit, exh.Simulations)
			}
		})
	}
}

// TestTrajectoryDeterminism is the satellite determinism test: a fixed
// seed reproduces the trajectory JSON byte for byte, on a cold engine each
// time.
func TestTrajectoryDeterminism(t *testing.T) {
	sp := smallSpace(t)
	run := func() []byte {
		r := newTestRunner(t)
		res, err := NewDriver(r).Search(context.Background(), sp, ACO{},
			Options{Budget: 20, Seed: 42, Sim: testSimOptions()})
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
		t.Errorf("same seed, different trajectory JSON:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"trajectory"`) {
		t.Errorf("result JSON lacks a trajectory: %s", a)
	}
}

// TestBudgetAccounting pins the budget ledger: evaluations never exceed
// the budget, simulations never exceed evaluations × workloads, and
// revisits/infeasible points ride free.
func TestBudgetAccounting(t *testing.T) {
	sp := smallSpace(t)
	r := newTestRunner(t)
	res, err := NewDriver(r).Search(context.Background(), sp, Random{},
		Options{Budget: 7, Seed: 3, Sim: testSimOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 7 {
		t.Errorf("evaluations = %d, budget 7", res.Evaluations)
	}
	if max := uint64(res.Evaluations * len(sp.Workloads)); res.Simulations > max {
		t.Errorf("simulations = %d, want <= %d", res.Simulations, max)
	}
	if res.Visited < res.Evaluations {
		t.Errorf("visited %d < evaluations %d", res.Visited, res.Evaluations)
	}

	// A second identical search on the same runner re-spends its budget
	// but the engine serves every simulation from cache.
	res2, err := NewDriver(r).Search(context.Background(), sp, Random{},
		Options{Budget: 7, Seed: 3, Sim: testSimOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Simulations != 0 {
		t.Errorf("warm rerun executed %d simulations, want 0", res2.Simulations)
	}
	if res2.CacheHitRate != 1 {
		t.Errorf("warm rerun cache-hit rate = %v, want 1", res2.CacheHitRate)
	}
	if res2.Best == nil || res.Best == nil || res2.Best.Metric("per_area") != res.Best.Metric("per_area") {
		t.Error("warm rerun found a different best")
	}
}

// TestSpaceExhaustionTerminates is the non-termination regression test:
// an open-ended strategy whose budget exceeds the space's distinct
// candidates must stop once every candidate is scored, not spin on free
// memoized revisits forever.
func TestSpaceExhaustionTerminates(t *testing.T) {
	sp := NewSpace(2, 0, testWorkloads(t)) // 9 distinct machines
	if got := sp.CountDistinct(); got != 9 {
		t.Fatalf("CountDistinct = %d, want 9", got)
	}
	for _, name := range []string{"random", "hillclimb", "aco"} {
		t.Run(name, func(t *testing.T) {
			st, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r := newTestRunner(t)
			res, err := NewDriver(r).Search(context.Background(), sp, st,
				Options{Budget: 1_000, Seed: 5, Sim: testSimOptions()})
			if err != nil {
				t.Fatal(err)
			}
			// 9 machines minus context-infeasible 1M2 = 8 chargeable.
			if res.Evaluations != 8 {
				t.Errorf("evaluations = %d, want 8 (the whole space)", res.Evaluations)
			}
			if res.Best == nil {
				t.Error("no best found despite full coverage")
			}
		})
	}
}

// TestSearchCancellation: a canceled context aborts the search with an
// error rather than a truncated result.
func TestSearchCancellation(t *testing.T) {
	sp := smallSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := newTestRunner(t)
	if _, err := NewDriver(r).Search(ctx, sp, Random{}, Options{Budget: 10, Sim: testSimOptions()}); err == nil {
		t.Error("pre-canceled context must abort the search")
	}
}

// TestProgressReporting: the progress callback sees every charged
// evaluation, in order.
func TestProgressReporting(t *testing.T) {
	sp := smallSpace(t)
	r := newTestRunner(t)
	var seen []int
	_, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 5, Seed: 9, Sim: testSimOptions(),
		Progress: func(done, total int) {
			if total != 5 {
				t.Errorf("total = %d, want 5", total)
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("progress fired %d times, want 5: %v", len(seen), seen)
	}
	for i, v := range seen {
		if v != i+1 {
			t.Errorf("progress[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range StrategyNames() {
		st, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if st.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, st.Name())
		}
	}
	if _, err := ByName("genetic"); err == nil {
		t.Error("unknown strategy must fail")
	}
}

// TestStrategyTrajectoriesPinned pins every built-in strategy's walk: a
// seed-1, budget-12 scalar run on the small space must marshal to the
// Result JSON whose SHA-256 testdata/strategy_trajectories.sha256 records.
// Refactors of the strategies must keep every trajectory byte-identical;
// on a mismatch the test prints the new digest line.
func TestStrategyTrajectoriesPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "strategy_trajectories.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	sp := smallSpace(t)
	for _, name := range StrategyNames() {
		t.Run(name, func(t *testing.T) {
			st, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewDriver(newTestRunner(t)).Search(context.Background(), sp, st,
				Options{Budget: 12, Seed: 1, Sim: testSimOptions()})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want[name] {
				t.Errorf("trajectory digest changed; new line:\n%s %s", name, got)
			}
		})
	}
}

// TestHillClimbTightAreaCap: when random probing cannot find a feasible
// start, hillclimb must still search via enumeration-order fallbacks rather
// than abort. Eight pipeline slots under tight caps push the decodable
// fraction far below 1/hillClimbStartTries (1/8192 under 20 mm², 1/1820
// under 35 mm²), so both halves reach fallbackStart.
func TestHillClimbTightAreaCap(t *testing.T) {
	tight := func(areaCap float64) Space {
		sp := NewSpace(8, areaCap, testWorkloads(t))
		sp.QueueScales = []int{75, 100}
		return sp
	}
	t.Run("infeasible", func(t *testing.T) {
		// Only the single-M2 machines fit under 20 mm²; the 2-thread
		// workload then makes them context-infeasible, but the search must
		// still terminate cleanly rather than error out.
		res, err := NewDriver(newTestRunner(t)).Search(context.Background(), tight(20), HillClimb{},
			Options{Budget: 10, Seed: 1, Sim: testSimOptions()})
		if err != nil {
			t.Fatalf("tight-cap hillclimb errored: %v", err)
		}
		if res.Best != nil {
			t.Errorf("no machine fits 2 threads under the cap, got best %s", res.Best.Config)
		}
	})
	t.Run("feasible", func(t *testing.T) {
		// With a cap that admits 2M2 variants, the fallback must find them.
		res, err := NewDriver(newTestRunner(t)).Search(context.Background(), tight(35), HillClimb{},
			Options{Budget: 10, Seed: 1, Sim: testSimOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatal("hillclimb found nothing despite feasible 2M2 machines under the cap")
		}
	})
}
