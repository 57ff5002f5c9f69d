// Command explore searches the hdSMT design space for the best
// performance-per-area machine — the paper's complexity-effectiveness
// objective as a search.
//
// Every run goes through internal/search and prints the best-so-far
// trajectory, the best machine and the search's simulation cost. The
// default strategy, exhaustive, enumerates every multiset of M6/M4/M2
// pipelines under an area budget and evaluates each over a workload set
// with the §2.1 heuristic mapping — the cross-check baseline. It also
// prints the monolithic M8 baseline on the same workloads as a reference
// line (area, harmonic-mean IPC, IPC/mm²); M8 is not a point of the
// multipipeline space.
//
// The metaheuristic strategies (random, hillclimb, aco and their
// proxy-seeded variants) walk the same space under an evaluation budget,
// usually widened (-enriched or explicit axes) to fetch policy ×
// issue-queue and decoupling-buffer sizing. A fixed -seed reproduces a
// search exactly.
//
// -objectives turns the run multi-objective (internal/pareto): the driver
// keeps an archive of non-dominated machines, the multi-objective
// strategies (nsga2, paco) optimize the whole front, and the output adds
// the front with its hypervolume trajectory (-frontcsv exports it).
//
// Examples:
//
//	explore                                   # exhaustive: MIX workloads, <= 4 pipelines
//	explore -maxpipes 5 -areacap 150
//	explore -strategy aco -evals 60 -enriched # guided search of the enriched space
//	explore -strategy hillclimb -evals 40 -qscales 75,100,125 -seed 7
//	explore -workloads 2W7,4W6,4W8 -budget 20000
//	explore -strategy nsga2 -objectives ipc,area,fairness -evals 64 -enriched
//	explore -strategy paco -objectives ipc,area -evals 48 -frontcsv front.csv
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/metrics"
	"hdsmt/internal/pareto"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/workload"
)

func main() {
	var (
		strategy  = flag.String("strategy", "exhaustive", "search strategy: "+strings.Join(search.StrategyNames(), "|"))
		maxPipes  = flag.Int("maxpipes", 4, "maximum pipelines per candidate")
		areaCap   = flag.Float64("areacap", 0, "area budget in mm² (0 = unlimited)")
		wlList    = flag.String("workloads", "2W7,4W6", "comma-separated workload set")
		budget    = flag.Uint64("budget", 10_000, "measured instructions per thread")
		warmup    = flag.Uint64("warmup", 5_000, "warm-up instructions per thread")
		evals     = flag.Int("evals", 64, "evaluation budget for the metaheuristic strategies")
		seed      = flag.Int64("seed", 1, "random seed (fixed seed = reproducible trajectory)")
		enriched  = flag.Bool("enriched", false, "search the full enriched space (policies × sizings)")
		policies  = flag.String("policies", "", "comma-separated fetch-policy axis (empty entry = config default)")
		qscales   = flag.String("qscales", "", "comma-separated issue/load-queue scales in percent")
		fbscales  = flag.String("fbscales", "", "comma-separated decoupling-buffer scales in percent")
		out       = flag.String("out", "", "also write the search result (trajectory, best machine, cost) to this JSON file")
		objs      = flag.String("objectives", "", "comma-separated multi-objective axes (2+ registered metrics, e.g. ipc,area,fairness,energy; empty = scalar IPC/mm²)")
		archive   = flag.Int("archive", 0, "non-dominated archive capacity (0 = default; crowding pruning beyond it)")
		frontCSV  = flag.String("frontcsv", "", "write the Pareto front to this CSV file (multi-objective runs)")
		frontPath = flag.String("frontpath", "", "persist the non-dominated archive to this JSON file and resume from it when it exists (multi-objective runs)")
		tracePath = flag.String("tracepath", "", "write a Chrome trace_event JSON of every engine job to this file (open in chrome://tracing or Perfetto)")
		quiet     = flag.Bool("quiet", false, "suppress the periodic progress line on stderr")
	)
	flag.Parse()
	if *frontCSV != "" && *objs == "" {
		// Checked before any simulation: a forgotten -objectives must not
		// surface only after the whole search has been paid for.
		fail(fmt.Errorf("-frontcsv needs a multi-objective run: pass -objectives too"))
	}
	if *archive != 0 && *objs == "" {
		fail(fmt.Errorf("-archive needs a multi-objective run: pass -objectives too"))
	}
	if *frontPath != "" && *objs == "" {
		fail(fmt.Errorf("-frontpath needs a multi-objective run: pass -objectives too"))
	}

	var wls []workload.Workload
	for _, name := range strings.Split(*wlList, ",") {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			fail(err)
		}
		wls = append(wls, w)
	}
	opt := sim.Options{Budget: *budget, Warmup: *warmup}

	// Telemetry spans the whole run: the engine and the search driver feed
	// one registry, the periodic stderr progress line reads it back, and
	// -tracepath records every engine job as a Chrome trace. Wall-clock
	// estimates stay on stderr and in the trace file — never in -out JSON.
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.NewTracer()
	}

	st, err := search.ByName(*strategy)
	if err != nil {
		fail(err)
	}
	// Objective names are validated against the metric registry before any
	// simulation: a typo fails fast with the list of known metrics instead
	// of producing a zero-valued front.
	var objectives []pareto.Objective
	if *objs != "" {
		if objectives, err = pareto.Parse(*objs); err != nil {
			fail(err)
		}
	}
	sp := search.NewSpace(*maxPipes, *areaCap, wls)
	if *enriched {
		sp = search.EnrichedSpace(*maxPipes, *areaCap, wls)
	}
	if *policies != "" {
		sp.Policies = strings.Split(*policies, ",")
		for i := range sp.Policies {
			sp.Policies[i] = strings.TrimSpace(sp.Policies[i])
		}
	}
	if *qscales != "" {
		sp.QueueScales = splitInts(*qscales)
	}
	if *fbscales != "" {
		sp.FetchBufScales = splitInts(*fbscales)
	}
	if err := sp.Validate(); err != nil {
		fail(err)
	}

	runner, err := sim.NewRunner(engine.Options{Telemetry: reg, Tracer: tracer})
	if err != nil {
		fail(err)
	}
	defer runner.Close()

	budgetEvals := *evals
	budgetDesc := fmt.Sprintf("budget %d evaluations", budgetEvals)
	if *strategy == "exhaustive" {
		budgetEvals = 0 // enumeration terminates on its own
		budgetDesc = "full enumeration"
	} else if budgetEvals <= 0 {
		// Same rule the server enforces: an unbounded guided search would
		// silently simulate the whole space.
		fail(fmt.Errorf("%s search needs a positive -evals budget", *strategy))
	}
	fmt.Printf("searching %d-genotype space with %s (%s, seed %d) over %d workloads...\n",
		sp.Size(), st.Name(), budgetDesc, *seed, len(wls))

	var rep *telemetry.Reporter
	if !*quiet {
		rep = telemetry.StartReporter(os.Stderr, reg, 2*time.Second)
	}
	res, err := search.NewDriver(runner).Search(context.Background(), sp, st, search.Options{
		Budget:      budgetEvals,
		Seed:        *seed,
		Sim:         opt,
		Objectives:  objectives,
		ArchiveCap:  *archive,
		ArchivePath: *frontPath,
		Telemetry:   reg,
		Progress:    func(done, total int) { rep.SetTotal(total) },
	})
	rep.Stop()
	if err != nil {
		fail(err)
	}
	// An exhaustive run is ranked against the monolithic baseline, which
	// the multipipeline space does not hold. Its jobs run before the trace
	// is written, so the trace covers them too.
	var m8Area, m8IPC float64
	if *strategy == "exhaustive" {
		m8Area, m8IPC = m8Reference(runner, wls, opt)
	}
	writeTrace(tracer, *tracePath)

	fmt.Println("\nbest-so-far trajectory:")
	fmt.Printf("%8s  %-24s %10s %10s %12s %12s\n", "evals", "machine", "area mm²", "IPC", "IPC/mm²", "EPI nJ")
	for _, tp := range res.Trajectory {
		fmt.Printf("%8d  %-24s %10.2f %10.3f %12.5f %12s\n", tp.Evaluations, tp.Name(),
			tp.Metric("area"), tp.Metric("ipc"), tp.Metric("per_area"), metricCell(tp, "energy"))
	}
	if res.Best == nil {
		fmt.Println("no feasible machine found")
	} else {
		fmt.Printf("\nbest: %s  IPC/mm² %.5f after %d evaluations\n", res.Best.Name(), res.Best.Metric("per_area"), res.Best.Evaluations)
	}
	if m8Area > 0 {
		fmt.Printf("M8 reference: area %.2f mm²  IPC %.3f  IPC/mm² %.5f\n", m8Area, m8IPC, m8IPC/m8Area)
	}
	printFront(res)
	fmt.Printf("cost: %d evaluations, %d simulations executed, %d submitted, cache-hit rate %.1f%%\n",
		res.Evaluations, res.Simulations, res.Submitted, 100*res.CacheHitRate)

	if *out != "" {
		writeJSON(*out, res)
	}
	if *frontCSV != "" {
		if len(res.Front) == 0 {
			fail(fmt.Errorf("-frontcsv needs a multi-objective run (-objectives) with a non-empty front"))
		}
		if err := writeFrontCSV(*frontCSV, res); err != nil {
			fail(err)
		}
		fmt.Printf("front written to %s\n", *frontCSV)
	}
}

// metricCell renders one metric value for a table, "-" when the point does
// not carry it (e.g. fairness on runs that never priced alone-run
// baselines in).
func metricCell(tp search.TrajectoryPoint, key string) string {
	v, ok := tp.Values[key]
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// printFront renders the non-dominated archive of a multi-objective run,
// ordered as the driver archives it (descending first-objective gain).
func printFront(res *search.Result) {
	if len(res.Front) == 0 {
		return
	}
	fmt.Printf("\npareto front over (%s): %d machines", strings.Join(res.Objectives, ", "), len(res.Front))
	if res.RestoredFront > 0 {
		fmt.Printf(" (%d restored from the archive file)", res.RestoredFront)
	}
	fmt.Println()
	fmt.Printf("%8s  %-24s %10s %10s %10s %12s %10s\n", "evals", "machine", "area mm²", "IPC", "fairness", "IPC/mm²", "EPI nJ")
	for _, fp := range res.Front {
		fmt.Printf("%8d  %-24s %10.2f %10.3f %10s %12.5f %10s\n",
			fp.Evaluations, fp.Name(), fp.Metric("area"), fp.Metric("ipc"),
			metricCell(fp, "fairness"), fp.Metric("per_area"), metricCell(fp, "energy"))
	}
	if n := len(res.Hypervolume); n > 0 {
		fmt.Printf("hypervolume: %.4f after %d archive improvements\n",
			res.Hypervolume[n-1].Hypervolume, n)
	}
}

// writeFrontCSV exports the front: one row per machine, one column per
// registered metric (absent values stay empty), so a newly registered
// metric shows up here without touching the exporter.
func writeFrontCSV(path string, res *search.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"machine", "config", "policy", "evaluations"}
	header = append(header, metrics.Keys()...)
	if err := w.Write(header); err != nil {
		return err
	}
	for _, fp := range res.Front {
		rec := []string{
			fp.Name(), fp.Config, fp.Policy, strconv.Itoa(fp.Evaluations),
		}
		for _, key := range metrics.Keys() {
			if v, ok := fp.Values[key]; ok {
				rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("result written to %s\n", path)
}

// m8Reference simulates the monolithic M8 baseline on every workload under
// the default mapping and returns its area and harmonic-mean IPC.
func m8Reference(runner *sim.Runner, wls []workload.Workload, opt sim.Options) (areaMM2, ipc float64) {
	m8 := config.MustParse("M8")
	reqs := make([]engine.Request, len(wls))
	for i, w := range wls {
		req, err := sim.NewRequest(m8, w, opt, "")
		if err != nil {
			fail(err)
		}
		reqs[i] = req
	}
	results, err := runner.Engine().RunBatch(context.Background(), reqs)
	if err != nil {
		fail(err)
	}
	ipcs := make([]float64, len(results))
	for i, r := range results {
		ipcs[i] = r.IPC
	}
	return area.MustTotal(m8), metrics.HMean(ipcs)
}

// writeTrace flushes the recorded spans to path (no-op when tracing is
// off). Called before rendering so a broken disk fails loudly, after the
// run so the trace covers every job.
func writeTrace(tracer *telemetry.Tracer, path string) {
	if path == "" {
		return
	}
	if err := tracer.WriteFile(path); err != nil {
		fail(err)
	}
	fmt.Printf("trace written to %s (%d events; open in chrome://tracing)\n", path, tracer.Len())
}

func splitInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fail(fmt.Errorf("bad integer list %q: %w", s, err))
		}
		out = append(out, n)
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "explore: %v\n", err)
	os.Exit(1)
}
