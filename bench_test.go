// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its artifact at a scaled budget and reports the headline
// quantities as custom metrics (b.ReportMetric), so `go test -bench=.`
// reproduces the paper's rows and series. cmd/experiments regenerates the
// same figures at the default scale.
package repro_test

import (
	"context"
	"testing"

	"hdsmt/internal/area"
	"hdsmt/internal/bench"
	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/mapping"
	"hdsmt/internal/metrics"
	"hdsmt/internal/perf"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// benchOptions keeps `go test -bench=.` affordable on one core while
// preserving comparative shape; cmd/experiments runs bigger budgets.
func benchOptions() sim.Options {
	return sim.Options{Budget: 4_000, Warmup: 2_500, OracleBudget: 2_000, MaxOracle: 24}
}

// coldRunner builds a fresh Runner. Sweep benchmarks take one per
// iteration and close it, so no iteration is served from an earlier
// iteration's memo store.
func coldRunner(b *testing.B) *sim.Runner {
	b.Helper()
	r, err := sim.NewRunner(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1Config regenerates the Table 1 parameter set (a pure
// configuration check; the benchmark measures construction cost).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := config.DefaultSimParams()
		if p.FetchWidth != 8 || p.ROBPerThread != 256 {
			b.Fatal("Table 1 defaults corrupted")
		}
	}
}

// BenchmarkFig2aModels regenerates the pipeline model table.
func BenchmarkFig2aModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := config.Models()
		if len(ms) != 4 {
			b.Fatal("model count")
		}
	}
	b.ReportMetric(float64(config.M8.Width), "M8-width")
	b.ReportMetric(float64(config.M2.Width), "M2-width")
}

// BenchmarkFig2bArea regenerates the per-model area bars.
func BenchmarkFig2bArea(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		for _, m := range config.Models() {
			bd, err := area.SinglePipelineProcessor(m)
			if err != nil {
				b.Fatal(err)
			}
			total = bd.Total()
		}
	}
	m8, _ := area.SinglePipelineProcessor(config.M8)
	m2, _ := area.SinglePipelineProcessor(config.M2)
	b.ReportMetric(m8.Total(), "M8-mm2")
	b.ReportMetric(m2.Total(), "M2-mm2")
	_ = total
}

// BenchmarkFig3Area regenerates the configuration areas and their deltas
// against the baseline.
func BenchmarkFig3Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range config.EvaluatedMicroarchs() {
			if _, err := area.Total(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	d1, _ := area.DeltaVsBaseline(config.MustParse("2M4+2M2"))
	d2, _ := area.DeltaVsBaseline(config.MustParse("3M4"))
	b.ReportMetric(100*d1, "2M4+2M2-delta-pct")
	b.ReportMetric(100*d2, "3M4-delta-pct")
}

// BenchmarkTables23Workloads regenerates the workload tables.
func BenchmarkTables23Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(workload.All()) != 22 {
			b.Fatal("workload table corrupted")
		}
	}
	b.ReportMetric(float64(len(workload.Select(2, workload.MEM))), "2T-MEM-workloads")
}

// figureBench runs one Fig. 4 sub-figure and reports the overall harmonic
// means (Fig. 4) and per-area values (Fig. 5) of the baseline and the best
// heterogeneous configuration.
func figureBench(b *testing.B, t workload.Type) {
	var fig sim.FigResult
	var err error
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		fig, err = r.RunFigure(context.Background(), t, benchOptions())
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	m8 := fig.Values["M8"]["HMEAN"]
	hd := fig.Values["2M4+2M2"]["HMEAN"]
	b.ReportMetric(m8.Heur, "M8-IPC")
	b.ReportMetric(hd.Heur, "2M4+2M2-IPC")
	pa, err := fig.PerArea()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(1000*pa.Values["M8"]["HMEAN"].Heur, "M8-mIPC/mm2")
	b.ReportMetric(1000*pa.Values["2M4+2M2"]["HMEAN"].Heur, "2M4+2M2-mIPC/mm2")
}

// BenchmarkFig4aILP regenerates Fig. 4(a)/5(a): ILP workloads.
func BenchmarkFig4aILP(b *testing.B) { figureBench(b, workload.ILP) }

// BenchmarkFig4bMEM regenerates Fig. 4(b)/5(b): MEM workloads.
func BenchmarkFig4bMEM(b *testing.B) { figureBench(b, workload.MEM) }

// BenchmarkFig4cMIX regenerates Fig. 4(c)/5(c): MIX workloads.
func BenchmarkFig4cMIX(b *testing.B) { figureBench(b, workload.MIX) }

// BenchmarkHeadline reproduces the §5 summary: perf/area improvements of
// hdSMT over monolithic and homogeneous SMT, raw-IPC relation, and
// heuristic accuracy.
func BenchmarkHeadline(b *testing.B) {
	var s sim.Summary
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		figs := map[workload.Type]sim.FigResult{}
		for _, t := range workload.Types() {
			fig, err := r.RunFigure(context.Background(), t, benchOptions())
			if err != nil {
				b.Fatal(err)
			}
			figs[t] = fig
		}
		r.Close()
		var err error
		s, err = sim.Summarize(figs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*s.PerfAreaVsMonolithic, "PA-vs-mono-pct")
	b.ReportMetric(100*s.PerfAreaVsHomogeneous, "PA-vs-homo-pct")
	b.ReportMetric(100*s.RawPerfMonoVsHd, "rawIPC-mono-vs-hd-pct")
	if acc, ok := s.HeurAccuracy["2M4+2M2"]; ok {
		b.ReportMetric(100*acc, "HEUR-acc-2M4+2M2-pct")
	}
}

// BenchmarkMappingOracle measures the oracle search on the configuration
// the paper discusses most (2M4+2M2 with a 4-thread MIX workload).
func BenchmarkMappingOracle(b *testing.B) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("4W6")
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		m, err := r.Evaluate(context.Background(), cfg, w, benchOptions())
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
		if m.Best < m.Worst {
			b.Fatal("oracle inverted")
		}
	}
}

// BenchmarkHeuristicMapping measures the §2.1 policy itself (profiles are
// memoized after the first run, as in an offline profiling setup).
func BenchmarkHeuristicMapping(b *testing.B) {
	cfg := config.MustParse("1M6+2M4+2M2")
	w := workload.MustByName("6W3")
	for i := 0; i < b.N; i++ {
		m, err := sim.HeuristicMapping(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if err := mapping.Validate(cfg, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreStep measures the cycle-level hot path itself: one
// multipipeline processor stepped over a fixed budget, reported as
// simulated MIPS (millions of simulated instructions per wall second) and
// ns per simulated cycle. With b.ReportAllocs the steady-state allocation
// behaviour of step() is visible directly (it must stay at ~0 allocs/op).
func BenchmarkCoreStep(b *testing.B) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("4W6")
	const budget = 20_000
	b.ReportAllocs()
	b.ResetTimer()
	var committed, cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(cfg, w, mapping.Mapping{0, 1, 2, 3}, sim.Options{Budget: budget})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Committed {
			committed += c
		}
		cycles += r.Cycles
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(committed)/secs/1e6, "MIPS")
	b.ReportMetric(secs*1e9/float64(cycles), "ns/cycle")
}

// BenchmarkEvaluateHEUR measures the throughput of the paper's central
// operation — evaluating the §2.1 HEUR mapping on the flagship
// heterogeneous configuration — in simulated MIPS. Like the Fig. 4
// sweeps, it covers one workload of each type (ILP, MEM, MIX), so the
// metric reflects the mix a real evaluation simulates. The MEM cell has by
// far the most simulated cycles, and the idle-cycle fast-forward skips
// about four in five of them (its stage loop runs 16,736 of 87,208); the
// ILP and MIX cells step 45% and 35% of theirs. It is the basket
// cmd/experiments -perf times (BENCH_PR2.json pins its counts, and -perf
// prints each cell's stepped and skipped cycles, which
// internal/core's TestSteppedCyclesPinned pins).
// Profiles are warmed before timing (they are offline, memoized inputs to
// HEUR, not part of the simulation being measured).
func BenchmarkEvaluateHEUR(b *testing.B) {
	cfg := config.MustParse(perf.BasketConfig)
	cells := []struct {
		w workload.Workload
		m mapping.Mapping
	}{}
	for _, name := range perf.BasketWorkloads() {
		w := workload.MustByName(name)
		m, err := sim.HeuristicMapping(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, struct {
			w workload.Workload
			m mapping.Mapping
		}{w, m})
	}
	opt := sim.Options{Budget: perf.BasketBudget, Warmup: perf.BasketWarmup}
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			r, err := sim.Run(cfg, c.w, c.m, opt)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range r.Committed {
				committed += n
			}
		}
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// instructions per second, the practical cost of every experiment above.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := config.MustParse("M8")
	w := workload.MustByName("2W1")
	const budget = 20_000
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(cfg, w, mapping.Mapping{0, 0}, sim.Options{Budget: budget})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Committed {
			committed += c
		}
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkProfilePass measures the offline profiling pass feeding HEUR:
// every benchmark built and profiled over bench.ProfileLen instructions,
// uncached, on one goroutine.
func BenchmarkProfilePass(b *testing.B) {
	bs := bench.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bm := range bs {
			if _, err := bench.CountDCacheMisses(bm, bench.ProfileLen); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHMeanAggregation measures the metrics layer (micro).
func BenchmarkHMeanAggregation(b *testing.B) {
	xs := []float64{3.2, 1.1, 0.4, 2.2, 0.9}
	for i := 0; i < b.N; i++ {
		if metrics.HMean(xs) <= 0 {
			b.Fatal("hmean")
		}
	}
}

// BenchmarkAblationRFLatency sweeps the shared-register-file latency
// assumption of §4 (1 vs 2 vs 3 cycles on 2M4+2M2).
func BenchmarkAblationRFLatency(b *testing.B) {
	var a sim.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		a, err = r.AblateRFLatency(context.Background(), workload.MustByName("2W1"), benchOptions())
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.Points[0].IPC, "IPC-1cyc")
	b.ReportMetric(a.Points[1].IPC, "IPC-2cyc")
}

// BenchmarkAblationFetchBuffer sweeps the decoupling buffer sizes of §4.
func BenchmarkAblationFetchBuffer(b *testing.B) {
	var a sim.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		a, err = r.AblateFetchBuffer(context.Background(), workload.MustByName("2W1"), benchOptions())
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.Points[0].IPC, "IPC-smallest")
	b.ReportMetric(a.Points[len(a.Points)-1].IPC, "IPC-largest")
}

// BenchmarkAblationFetchPolicy compares ICOUNT/FLUSH/L1MCOUNT on the
// baseline for a MIX workload (§4's policy assignment).
func BenchmarkAblationFetchPolicy(b *testing.B) {
	var a sim.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		a, err = r.AblateFetchPolicy(context.Background(), workload.MustByName("2W7"), benchOptions())
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range a.Points {
		b.ReportMetric(p.IPC, "IPC-"+p.Label)
	}
}

// BenchmarkMappingPolicies compares the paper's §2.1 heuristic against this
// repository's WidthFit extension (see mapping.WidthFit) on a 6-thread ILP
// workload, where §2.1's private-pipeline rule costs the most.
func BenchmarkMappingPolicies(b *testing.B) {
	cfg := config.MustParse("1M6+2M4+2M2")
	w := workload.MustByName("6W1")
	var heurIPC, wfIPC float64
	for i := 0; i < b.N; i++ {
		hm, err := sim.HeuristicMapping(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		hr, err := sim.Run(cfg, w, hm, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		heurIPC = hr.IPC
		wm, err := sim.WidthFitMapping(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		wr, err := sim.Run(cfg, w, wm, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		wfIPC = wr.IPC
	}
	b.ReportMetric(heurIPC, "IPC-HEUR")
	b.ReportMetric(wfIPC, "IPC-WidthFit")
}

// BenchmarkFairness reports the SMT fairness metrics (weighted speedup,
// harmonic fairness) for the heuristic mapping on a MIX workload — an
// evaluation axis the paper omits.
func BenchmarkFairness(b *testing.B) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("2W7")
	var f sim.FairnessResult
	for i := 0; i < b.N; i++ {
		m, err := sim.HeuristicMapping(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		f, err = sim.Fairness(cfg, w, m, sim.Options{Budget: 8_000, Warmup: 6_000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.WeightedSpeedup, "weighted-speedup")
	b.ReportMetric(f.HarmonicFairness, "harmonic-fairness")
}

// BenchmarkDynamicMapping compares static §2.1 mapping against the §7
// future-work dynamic remapping extension.
func BenchmarkDynamicMapping(b *testing.B) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("4W7")
	var r sim.DynamicResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = sim.RunDynamic(cfg, w, sim.DefaultRemapInterval, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.StaticIPC, "IPC-static")
	b.ReportMetric(r.DynamicIPC, "IPC-dynamic")
	b.ReportMetric(float64(r.Migrations), "migrations")
}

// BenchmarkDesignSpaceExplore measures the extension design-space search:
// an exhaustive enumeration of the machines of at most two pipelines.
func BenchmarkDesignSpaceExplore(b *testing.B) {
	sp := search.NewSpace(2, 0, []workload.Workload{workload.MustByName("2W7")})
	var res *search.Result
	for i := 0; i < b.N; i++ {
		r := coldRunner(b)
		var err error
		res, err = search.NewDriver(r).Search(context.Background(), sp, search.Exhaustive{}, search.Options{Sim: benchOptions()})
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Best == nil {
		b.Fatal("exploration found no feasible machine")
	}
	b.ReportMetric(res.Best.Metric("per_area")*1000, "best-mIPC/mm2")
}
