// Command experiments regenerates every table and figure of the paper's
// evaluation: the area figures (Fig. 2b, Fig. 3), the IPC comparison
// (Fig. 4a-c), the performance-per-area comparison (Fig. 5a-c) and the §5
// headline summary. Budgets are scaled (the paper simulates 300M
// instructions per thread); pass -budget to change the scale.
//
// It also generates the pinned BENCH_PR*.json artifacts, one output flag
// per artifact (see artifacts).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// artifact is one pinned BENCH report: the flag naming its output file and
// the generator that computes it. A generator returns the deterministic
// report, or an error when one of its own acceptance criteria fails; what
// the wall clock touches it prints to stdout, so two generations on any
// machine write identical bytes.
type artifact struct {
	flag, usage string
	gen         func(params) (any, error)
}

// params are the flags generators read.
type params struct {
	reps int  // timing repetitions per pass (-perf, -sampled)
	full bool // -power at full scale
}

var artifacts = []artifact{
	{"perf", "measure simulator throughput on the HEUR basket, optimized vs reference stepping (BENCH_PR2: simulated counts pinned, timing on stdout), write the report to this JSON file", genPerf},
	{"search", "run the search-efficiency benchmark (BENCH_PR3: metaheuristics vs exhaustive enumeration), write the report to this JSON file", genSearch},
	{"pareto", "run the multi-objective benchmark (BENCH_PR4: fronts, hypervolume trajectories, seeded priors, per-class specialization), write the report to this JSON file", genPareto},
	{"sampled", "run the sampled-simulation benchmark (BENCH_PR10: systematic sampling vs exact on the HEUR basket: error, interval coverage, speedup), write the report to this JSON file", genSampled},
	{"power", "run the power-model benchmark (BENCH_PR5: per-machine EPI/ED/ED², the 4-objective ipc/area/fairness/energy front, NSGA-II/PACO hypervolume trajectories), write the report to this JSON file", genPower},
}

// figures are the -figure keys and their workload classes, in paper order
// (Fig. 5a-c derive from the same runs).
var figures = []struct {
	key string
	t   workload.Type
}{{"4a", workload.ILP}, {"4b", workload.MEM}, {"4c", workload.MIX}}

// options are the parsed command line.
type options struct {
	sim                                   sim.Options
	list, areaOnly, detail, ablate, quiet bool
	figure, csvDir, tracePath             string
	params                                params
	outs                                  []string // per artifact; "" = not requested
}

func main() { os.Exit(run(os.Args[1:])) }

// run executes one command line and returns its exit status: 0 on
// success, 1 when a run or an artifact's criterion fails, 2 on a usage
// error, which is rejected before anything is simulated.
func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var o options
	fs.Uint64Var(&o.sim.Budget, "budget", 30_000, "measured instructions per thread")
	fs.Uint64Var(&o.sim.Warmup, "warmup", 10_000, "warm-up instructions per thread")
	fs.Uint64Var(&o.sim.OracleBudget, "oracle", 0, "oracle search budget (0 = same as -budget)")
	fs.IntVar(&o.sim.MaxOracle, "maxoracle", 96, "cap on oracle mappings searched (0 = exhaustive)")
	fs.IntVar(&o.sim.Parallel, "parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.BoolVar(&o.list, "list", false, "list workloads (Tables 2-3) and exit")
	fs.BoolVar(&o.areaOnly, "area", false, "print area figures (Fig. 2b, Fig. 3) and exit")
	fs.StringVar(&o.figure, "figure", "", "run a single sub-figure: 4a|4b|4c (5a-c derive from the same runs)")
	fs.BoolVar(&o.detail, "detail", false, "also print per-workload measurements")
	fs.BoolVar(&o.ablate, "ablate", false, "run the design-choice ablations and exit")
	fs.StringVar(&o.csvDir, "csv", "", "also write per-figure CSV files into this directory")
	fs.IntVar(&o.params.reps, "reps", 3, "timing repetitions per pass for -perf and -sampled (the fastest is reported)")
	fs.BoolVar(&o.params.full, "powerfull", false, "run -power at full scale (exhaustive 4-objective front over the whole enriched space; default is the CI-sized short mode)")
	fs.StringVar(&o.tracePath, "tracepath", "", "write a Chrome trace_event JSON of every engine job to this file (open in chrome://tracing or Perfetto)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the periodic progress line on stderr")
	o.outs = make([]string, len(artifacts))
	for i, a := range artifacts {
		fs.StringVar(&o.outs[i], a.flag, "", a.usage+", and exit")
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageError := func(format string, a ...any) int {
		fmt.Fprintf(fs.Output(), "experiments: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if o.params.reps < 1 {
		return usageError("-reps %d: want at least 1", o.params.reps)
	}
	if o.figure != "" && !isFigure(o.figure) {
		return usageError("-figure %q: want 4a, 4b or 4c", o.figure)
	}

	obsInit(o.tracePath, o.quiet)
	err := o.execute()
	if cerr := obsClose(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}

// isFigure reports whether key names one of the figures.
func isFigure(key string) bool {
	for _, f := range figures {
		if f.key == key {
			return true
		}
	}
	return false
}

// execute runs what the command line selected: the workload list, every
// requested artifact, or the paper's figures.
func (o *options) execute() error {
	if o.list {
		printWorkloads()
		return nil
	}
	emitted := false
	for i, a := range artifacts {
		if o.outs[i] == "" {
			continue
		}
		report, err := a.gen(o.params)
		if err != nil {
			return fmt.Errorf("%s: %w", a.flag, err)
		}
		if err := emit(o.outs[i], report); err != nil {
			return fmt.Errorf("%s: %w", a.flag, err)
		}
		fmt.Printf("%s: report written to %s\n", a.flag, o.outs[i])
		emitted = true
	}
	if emitted {
		return nil
	}
	return o.paper()
}

// emit writes report as indented JSON with a trailing newline: the one
// encoding of every BENCH artifact.
func emit(path string, report any) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// paper prints the area figures, then runs the ablations or the IPC and
// performance-per-area figures with the §5 summary.
func (o *options) paper() error {
	if err := printAreaFigures(); err != nil || o.areaOnly {
		return err
	}

	// One shared runner for every sweep below, so cells common to several
	// figures (and the ablations) are simulated once.
	runner, err := sim.NewRunner(obsEngineOptions(o.sim.Parallel))
	if err != nil {
		return err
	}
	defer runner.Close()
	ctx := context.Background()

	if o.ablate {
		as, err := runner.RunAblations(ctx, workload.MustByName("4W6"), o.sim)
		if err != nil {
			return err
		}
		for _, a := range as {
			fmt.Println(a.Render())
		}
		return nil
	}

	figs := map[workload.Type]sim.FigResult{}
	for _, f := range figures {
		if o.figure != "" && o.figure != f.key {
			continue
		}
		fmt.Printf("running Fig. %s (%s workloads)...\n", f.key, f.t)
		fig, err := runner.RunFigure(ctx, f.t, o.sim)
		if err != nil {
			return err
		}
		figs[f.t] = fig
		fmt.Println(fig.Render())
		if o.csvDir != "" {
			if err := writeCSVs(o.csvDir, f.key, fig); err != nil {
				return err
			}
		}
		pa, err := fig.PerArea()
		if err != nil {
			return err
		}
		fmt.Println(pa.Render())
		if o.detail {
			fmt.Println(fig.RenderPerWorkload())
		}
	}

	if len(figs) == len(figures) {
		s, err := sim.Summarize(figs)
		if err != nil {
			return err
		}
		fmt.Println(s.Render())
	}
	return nil
}

// writeCSVs emits fig<key>.csv (aggregates) and fig<key>_workloads.csv
// (raw measurements) into dir.
func writeCSVs(dir, key string, fig sim.FigResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	agg, err := os.Create(filepath.Join(dir, "fig"+key+".csv"))
	if err != nil {
		return err
	}
	defer agg.Close()
	if err := fig.WriteCSV(agg); err != nil {
		return err
	}
	per, err := os.Create(filepath.Join(dir, "fig"+key+"_workloads.csv"))
	if err != nil {
		return err
	}
	defer per.Close()
	return fig.WritePerWorkloadCSV(per)
}

func printWorkloads() {
	fmt.Println("Tables 2-3: workloads")
	for _, w := range workload.All() {
		fmt.Printf("  %-4s %-4s %s\n", w.Name, w.Type, strings.Join(w.Benchmarks, ", "))
	}
}

func printAreaFigures() error {
	fmt.Println("Fig. 2b: area per pipeline model (mm², 0.18µm; single-pipeline processor)")
	fmt.Printf("  %-6s", "model")
	for s := area.Stage(0); s < area.NumStages; s++ {
		fmt.Printf(" %8s", s)
	}
	fmt.Printf(" %9s\n", "TOTAL")
	for _, m := range config.Models() {
		b, err := area.SinglePipelineProcessor(m)
		if err != nil {
			return err
		}
		fmt.Printf("  %-6s", m.Name)
		for s := area.Stage(0); s < area.NumStages; s++ {
			fmt.Printf(" %8.2f", b[s])
		}
		fmt.Printf(" %9.2f\n", b.Total())
	}

	fmt.Println("\nFig. 3: area of evaluated microarchitectures")
	base := area.MustTotal(config.MustParse("M8"))
	for _, cfg := range config.EvaluatedMicroarchs() {
		total := area.MustTotal(cfg)
		fmt.Printf("  %-14s %8.2f mm²  (%+.2f%% vs M8)\n", cfg.Name, total, 100*(total-base)/base)
	}
	fmt.Println()
	return nil
}
