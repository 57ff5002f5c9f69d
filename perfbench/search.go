package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/perf"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/workload"
)

// search-sampled: cold-engine ACO searches over the enriched space on the
// basket's workloads, triaging first visits with sampled simulations, on a
// one-worker engine. The number of searches is fixed by the run length
// (not by the clock), so every count and the search outcome are
// deterministic per seed and duration.

const (
	// searchEvals is each search's evaluation budget.
	searchEvals = 24
	// searchSeconds is the host time one search is sized at; a run of S
	// seconds makes S/searchSeconds searches.
	searchSeconds = 5
)

type searchBench struct {
	wls     []workload.Workload
	seed    int64
	scratch string
}

func setupSearch(seed int64, scratch string, o *outcome) (bench, error) {
	s := &searchBench{seed: seed, scratch: scratch}
	for _, name := range perf.BasketWorkloads() {
		s.wls = append(s.wls, workload.MustByName(name))
	}
	if _, err := warmPrograms(s.wls, o); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *searchBench) close() {}

// searchCount is the number of searches a run of length d makes.
func searchCount(d time.Duration) int {
	return max(2, int(d.Seconds()+searchSeconds/2)/searchSeconds)
}

// subSeed is the Options.Seed of the run's i-th search; the first search
// uses the workload seed itself.
func (s *searchBench) subSeed(i int) int64 { return s.seed + int64(i)<<32 }

// searchRun is one timed search.
type searchRun struct {
	res       *search.Result
	wall, cpu time.Duration
	stats     engine.Stats
}

// search runs search i on a fresh engine; eopts selects tracing.
func (s *searchBench) search(i int, eopts engine.Options, o *outcome) (*searchRun, error) {
	eopts.Workers = 1
	runner, err := sim.NewRunner(eopts)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	run := &searchRun{}
	o.attempted += searchEvals
	start, cpuStart := time.Now(), cpuTime()
	res, err := search.NewDriver(runner).Search(context.Background(), search.EnrichedSpace(4, 0, s.wls), search.NewACO(), search.Options{
		Budget: searchEvals,
		Seed:   s.subSeed(i),
		Sim:    sim.Options{Budget: perf.BasketBudget, Warmup: perf.BasketWarmup},
		Sample: core.DefaultSampleParams(),
	})
	run.wall, run.cpu = time.Since(start), cpuTime()-cpuStart
	run.stats = runner.Stats()
	if err != nil {
		o.failed += searchEvals
		return nil, err
	}
	run.res = res
	ok := o.check(res.Evaluations == searchEvals, "search %d: spent %d evaluations of a budget of %d", i, res.Evaluations, searchEvals)
	ok = o.check(res.Best != nil, "search %d: no incumbent", i) && ok
	if !ok {
		o.failed += searchEvals
	}
	o.exact[fmt.Sprintf("search.%d.digest", i)] = digest(res)
	return run, nil
}

func (s *searchBench) timed(d time.Duration, midway func() error, o *outcome) error {
	var wall, cpu []float64
	evals := 0
	best := 0.0
	n := searchCount(d)
	for i := 0; i < n; i++ {
		if i == n/2 {
			if err := midway(); err != nil {
				return err
			}
		}
		r, err := s.search(i, engine.Options{}, o)
		if err != nil {
			return err
		}
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		evals += r.res.Evaluations
		if r.res.Best != nil {
			best = max(best, r.res.Best.Metric("per_area"))
		}
	}
	o.setTiming("ops_per_cpu_s", float64(evals)/sum(wall), float64(evals)/sum(cpu), "1/s")
	// A user waits for a whole search, so its latency is per search.
	o.setTiming("lat_p50_ms", median(wall)*1e3, median(cpu)*1e3, "ms")
	o.setTiming("lat_p90_ms", quantile(wall, 0.9)*1e3, quantile(cpu, 0.9)*1e3, "ms")
	o.set("ipc_per_mm2", best, "IPC/mm2")
	fmt.Printf("search-sampled: %d searches of %d evaluations, search CPU seconds %s\n", n, searchEvals, formatFloats(cpu, 2))
	return nil
}

// traced runs each of the first half of the run's searches twice: untraced,
// then on an engine with its span tracer and checkpoint journal on. The
// journal maps each simulate span's request key to its Results, which tell
// sampled triage runs from exact ones. Both runs must give the same Result.
func (s *searchBench) traced(d time.Duration, o *outcome) error {
	var (
		plainS, tracedS                 []float64
		simExact, simSampled, queueWait []float64
		selfS                           []float64
		executed, hits, submitted       uint64
		sims, evals, triaged, promoted  int
		plainAlloc                      uint64
		plainGCs                        uint32
	)
	n := max(1, searchCount(d)/2)
	for i := 0; i < n; i++ {
		mem := startMem()
		plain, err := s.search(i, engine.Options{}, o)
		if err != nil {
			return err
		}
		alloc, gcs := mem.stop()
		plainAlloc += alloc
		plainGCs += gcs
		plainS = append(plainS, plain.cpu.Seconds())

		tracer := telemetry.NewTracer()
		journal := filepath.Join(s.scratch, fmt.Sprintf("search-%d.jsonl", i))
		tr, err := s.search(i, engine.Options{Tracer: tracer, JournalPath: journal}, o)
		if err != nil {
			return err
		}
		tracedS = append(tracedS, tr.cpu.Seconds())
		o.check(digest(tr.res) == digest(plain.res), "search %d: traced and untraced searches disagree", i)

		sampledKey, err := journalKinds(journal)
		if err != nil {
			return err
		}
		spans, err := tracerSpans(tracer)
		if err != nil {
			return err
		}
		simTotal := 0.0
		for _, sp := range spans {
			switch sp.Name {
			case "simulate":
				simTotal += sp.Dur / 1e3
				sampled, ok := sampledKey[sp.Args["key"]]
				o.check(ok, "search %d: simulate span for key %s missing from the journal", i, sp.Args["key"])
				if sampled {
					simSampled = append(simSampled, sp.Dur/1e3)
				} else {
					simExact = append(simExact, sp.Dur/1e3)
				}
			case "queue-wait":
				queueWait = append(queueWait, sp.Dur/1e3)
			}
		}
		selfS = append(selfS, tr.wall.Seconds()-simTotal/1e3)
		executed += tr.stats.Executed
		hits += tr.stats.Hits
		submitted += tr.stats.Submitted
		sims += int(tr.res.Simulations)
		evals += tr.res.Evaluations
		triaged += tr.res.Triaged
		promoted += tr.res.Promoted
	}
	o.set("engine.sim_exact_ms", mean(simExact), "ms")
	o.set("engine.sim_sampled_ms", mean(simSampled), "ms")
	o.set("engine.queue_wait_ms", mean(queueWait), "ms")
	o.exactCount("engine.executed", float64(executed)/float64(n), "count")
	o.exactCount("engine.hit_frac", float64(hits)/float64(submitted), "ratio")
	o.exactCount("search.sims_per_eval", float64(sims)/float64(evals), "ratio")
	o.exactCount("search.promote_frac", float64(promoted)/float64(triaged), "ratio")
	o.set("search.self_s", mean(selfS), "s")
	o.set("runtime.alloc_kb_per_op", float64(plainAlloc)/float64(n*searchEvals)/1024, "KB")
	o.set("runtime.gc_per_kop", float64(plainGCs)/float64(n*searchEvals)*1000, "count")
	o.set("trace.overhead_pct", (sum(tracedS)/sum(plainS)-1)*100, "%")
	fmt.Printf("search-sampled traced: %d searches run untraced and traced; %d exact and %d sampled simulate spans\n",
		n, len(simExact), len(simSampled))
	return nil
}

// traceSpan is the part of a Chrome trace_event the benchmark reads.
type traceSpan struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	Dur   float64           `json:"dur"` // µs
	Args  map[string]string `json:"args"`
}

// tracerSpans exports the tracer's complete ("X") events.
func tracerSpans(t *telemetry.Tracer) ([]traceSpan, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []traceSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	var out []traceSpan
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			out = append(out, ev)
		}
	}
	return out, nil
}

// journalKinds reads an engine checkpoint journal and maps each entry's
// key, shortened the way the tracer's span arguments shorten it, to
// whether the simulation was sampled.
func journalKinds(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e struct {
			Key    string `json:"key"`
			Result struct {
				Sampled json.RawMessage
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		out[e.Key[:min(12, len(e.Key))]] = len(e.Result.Sampled) > 0 && string(e.Result.Sampled) != "null"
	}
	return out, sc.Err()
}
