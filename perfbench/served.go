package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hdsmt/internal/client"
	"hdsmt/internal/engine"
	"hdsmt/internal/obslog"
	"hdsmt/internal/perf"
	"hdsmt/internal/retry"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/tshist"
	"hdsmt/internal/workload"
)

// served-warm: hdsmtd in-process with the option set cmd/hdsmtd applies by
// default plus a job journal, on loopback. Set-up primes every distinct job
// of the palette, so every timed job is a memo hit and the time goes to
// admission, the job journal, JSON encoding, SSE, logging and the engine's
// hit path. Two closed-loop clients each repeat submit → follow over SSE
// until settled → fetch the result → DELETE, taking jobs in seed order,
// three "run" jobs to one "evaluate" job.

const (
	servedClients = 2
	// servedBlocks is how many blocks of consecutive completions a phase
	// is cut into. The timed phase runs as two phases, one on either side
	// of its midway pause; ops_per_cpu_s and the latency quantiles are
	// medians over the blocks of both.
	servedBlocks = 25
)

// Job sizes: small, because set-up simulates each palette job once.
var servedOpt = sim.Options{Budget: 3_000, Warmup: 1_000, OracleBudget: 1_500}

type servedBench struct {
	scratch string

	runner   *sim.Runner
	srv      *server.Server
	httpSrv  *http.Server
	tr       *http.Transport
	hc       *http.Client
	cl       *client.Client
	base     string
	stopHist context.CancelFunc
	histDone chan struct{}
	logBytes *countingWriter
	journal  string

	// palette lists the run jobs, then the evaluate jobs.
	palette []server.JobSpec
	runs    int
	// primed is each palette job's result bytes; hits its engine hit count.
	primed [][]byte
	hits   []uint64

	// The job sequence, drawn from the seed in blocks of four: three run
	// jobs and one evaluate job, in shuffled positions.
	seqMu  sync.Mutex
	seqRNG *rand.Rand
	block  []int
}

// countingWriter discards log output, counting its bytes.
type countingWriter struct{ n atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

func setupServed(seed int64, scratch string, o *outcome) (bench, error) {
	s := &servedBench{scratch: scratch, logBytes: &countingWriter{}, seqRNG: rand.New(rand.NewSource(seed))}
	if err := s.buildPalette(o); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	t1 := time.Now()
	if err := s.prime(); err != nil {
		s.close()
		return nil, err
	}
	o.exact["served.results"] = digest(s.primed)
	o.set("server.start_ms", ms(t1.Sub(t0)), "ms")
	o.set("server.prime_ms", ms(time.Since(t1)), "ms")
	return s, nil
}

// start builds the server the way cmd/hdsmtd does with its default flags,
// plus a job journal, and serves it on a loopback port.
func (s *servedBench) start() error {
	reg := telemetry.NewRegistry()
	sampler := tshist.New(reg, tshist.Config{
		Interval: 5 * time.Second,
		Capacity: 512,
		SLOs:     []tshist.SLO{tshist.AvailabilitySLO(0.999)},
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stopHist, s.histDone = cancel, make(chan struct{})
	go func() {
		defer close(s.histDone)
		sampler.Run(ctx)
	}()

	logger := obslog.New(s.logBytes, obslog.WithLevel(obslog.LevelInfo))
	runner, err := sim.NewRunner(engine.Options{Telemetry: reg, Log: logger})
	if err != nil {
		return err
	}
	s.runner = runner
	s.journal = filepath.Join(s.scratch, "jobs.jsonl")
	srv, err := server.New(runner,
		server.WithTelemetry(reg),
		server.WithLogger(logger),
		server.WithMaxBodyBytes(1<<20),
		server.WithSSEHeartbeat(15*time.Second),
		server.WithHistory(sampler),
		server.WithTraceSpanCap(telemetry.DefaultJobTraceCap),
		server.WithAdmission(server.AdmissionConfig{MaxPending: 64}),
		server.WithJobJournal(s.journal),
	)
	if err != nil {
		return err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.httpSrv.Serve(ln)
	s.base = "http://" + ln.Addr().String()

	s.tr = &http.Transport{MaxIdleConnsPerHost: 4 * servedClients}
	s.hc = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	// One attempt: a 429, a 5xx or a timeout is a failed operation here,
	// not something to retry past.
	s.cl = client.New(s.base, client.WithHTTPClient(s.hc), client.WithRetryPolicy(retry.Policy{Attempts: 1}))
	return nil
}

// buildPalette lists the distinct jobs — a run job per two-thread Table 2
// row and an evaluate job per class from Table 3's four-thread rows, whose
// oracle fans out over many mappings, all on the basket configuration —
// and does their programs' first-use work.
func (s *servedBench) buildPalette(o *outcome) error {
	cfg := perf.BasketConfig
	for _, t := range workload.Types() {
		for _, w := range workload.Select(2, t) {
			s.palette = append(s.palette, server.JobSpec{Kind: "run", Config: cfg, Workload: w.Name,
				Budget: servedOpt.Budget, Warmup: servedOpt.Warmup})
		}
	}
	s.runs = len(s.palette)
	for _, t := range workload.Types() {
		s.palette = append(s.palette, server.JobSpec{Kind: "evaluate", Config: cfg, Workload: workload.Select(4, t)[0].Name,
			Budget: servedOpt.Budget, Warmup: servedOpt.Warmup, OracleBudget: servedOpt.OracleBudget})
	}
	var wls []workload.Workload
	for _, spec := range s.palette {
		wls = append(wls, workload.MustByName(spec.Workload))
	}
	_, err := warmPrograms(wls, o)
	return err
}

// prime completes each palette job twice: once to simulate it, once to
// count the engine hits it costs when warm.
func (s *servedBench) prime() error {
	for pass := 0; pass < 2; pass++ {
		for i, spec := range s.palette {
			before := s.runner.Stats().Hits
			_, result, err := s.cycle(context.Background(), spec, false)
			if err != nil {
				return fmt.Errorf("priming %s %s: %w", spec.Kind, spec.Workload, err)
			}
			if pass == 0 {
				s.primed = append(s.primed, result)
			} else {
				s.hits = append(s.hits, s.runner.Stats().Hits-before)
				if !bytes.Equal(result, s.primed[i]) {
					return fmt.Errorf("priming %s %s: warm result differs from the first", spec.Kind, spec.Workload)
				}
			}
		}
	}
	return nil
}

// close tears the server down. Errors are dropped: every job has settled
// and been checked by now, and the scratch directory is removed after.
func (s *servedBench) close() {
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.httpSrv.Shutdown(ctx)
		cancel()
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.runner != nil {
		s.runner.Close()
	}
	if s.stopHist != nil {
		s.stopHist()
		<-s.histDone
	}
}

// next returns the next job of the seed's sequence as a palette index.
func (s *servedBench) next() int {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if len(s.block) == 0 {
		runs, evals := s.runs, len(s.palette)-s.runs
		s.block = []int{s.seqRNG.Intn(runs), s.seqRNG.Intn(runs), s.seqRNG.Intn(runs), runs + s.seqRNG.Intn(evals)}
		s.seqRNG.Shuffle(4, func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	i := s.block[0]
	s.block = s.block[1:]
	return i
}

// jobCycle is the measurements of one completed submit → settle → result
// → evict cycle. It holds numbers only, so a long run keeps no job's
// payload alive.
type jobCycle struct {
	events                       int
	submit, settle, fetch, evict time.Duration
	latency                      time.Duration // submit until the result body arrived
	// Traced cycles only: the span tree's size and the self times of its
	// admission and execute spans.
	spans              int
	admission, execute time.Duration
}

// cycle runs one job through its whole life and returns its measurements
// and result bytes; traced also reads the job's span tree before evicting
// it.
func (s *servedBench) cycle(ctx context.Context, spec server.JobSpec, traced bool) (*jobCycle, []byte, error) {
	c := &jobCycle{}
	t0 := time.Now()
	st, err := s.cl.Submit(ctx, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	final := ""
	err = s.cl.Stream(ctx, st.ID, 0, func(ev server.Event) error {
		c.events++
		if ev.Type == server.EventSettled {
			final = ev.Detail
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("stream %s: %w", st.ID, err)
	}
	if final != "done" {
		return nil, nil, fmt.Errorf("job %s settled %q", st.ID, final)
	}
	t2 := time.Now()
	var raw json.RawMessage
	if err := s.cl.Result(ctx, st.ID, &raw); err != nil {
		return nil, nil, fmt.Errorf("result %s: %w", st.ID, err)
	}
	t3 := time.Now()
	if traced {
		tp, err := s.cl.Trace(ctx, st.ID)
		if err != nil {
			return nil, nil, fmt.Errorf("trace %s: %w", st.ID, err)
		}
		c.spans = tp.Spans
		walkSpans(tp.Root, func(n *telemetry.SpanNode) {
			self := n.DurUS
			for _, ch := range n.Children {
				self -= ch.DurUS
			}
			switch n.Name {
			case "admission":
				c.admission += time.Duration(self) * time.Microsecond
			case "execute":
				c.execute += time.Duration(self) * time.Microsecond
			}
		})
	}
	t4 := time.Now()
	if err := s.evict(ctx, st.ID); err != nil {
		return nil, nil, err
	}
	c.submit, c.settle, c.fetch, c.evict = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), time.Since(t4)
	c.latency = t3.Sub(t0)
	return c, raw, nil
}

// evict removes a settled job from the server (DELETE /jobs/{id}).
func (s *servedBench) evict(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.base+"/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("evict %s: %w", id, err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("evict %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		return fmt.Errorf("evict %s: HTTP %d, state %q", id, resp.StatusCode, st.State)
	}
	return nil
}

// phaseResult is what the clients measured over one timed phase.
type phaseResult struct {
	lat   []float64 // wall ms from submit to result, per completed job
	done  []stamp   // both clocks at each completion
	start stamp     // both clocks when the phase began
	// jobs holds, on traced phases, every completed job's measurements by
	// job kind.
	jobs map[string][]*jobCycle
	hits uint64 // engine hits the completed jobs cost when primed
}

// phase runs the closed-loop clients for d and checks every job.
func (s *servedBench) phase(d time.Duration, traced bool, o *outcome) *phaseResult {
	pr := &phaseResult{jobs: map[string][]*jobCycle{}, start: now()}
	var mu sync.Mutex
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := s.next()
				jc, result, err := s.cycle(ctx, s.palette[i], traced)
				mu.Lock()
				o.attempted++
				switch {
				case err != nil:
					o.failed++
					o.check(false, "%s %s: %v", s.palette[i].Kind, s.palette[i].Workload, err)
				case !bytes.Equal(result, s.primed[i]):
					o.failed++
					o.check(false, "%s %s: result bytes differ from the primed result", s.palette[i].Kind, s.palette[i].Workload)
				default:
					pr.lat = append(pr.lat, ms(jc.latency))
					pr.done = append(pr.done, now())
					pr.hits += s.hits[i]
					if traced {
						pr.jobs[s.palette[i].Kind] = append(pr.jobs[s.palette[i].Kind], jc)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return pr
}

// count is the number of completed jobs.
func (pr *phaseResult) count() int { return len(pr.lat) }

// blockSize cuts the phase's completions into servedBlocks blocks.
func (pr *phaseResult) blockSize() int { return max(1, pr.count()/servedBlocks) }

// rates returns each block's jobs per second on the clock of.
func (pr *phaseResult) rates(of func(elapsed) time.Duration) []float64 {
	size := pr.blockSize()
	var rates []float64
	prev := pr.start
	for end := size; end <= pr.count(); end += size {
		t := pr.done[end-1]
		rates = append(rates, float64(size)/of(elapsed{t.wall.Sub(prev.wall), t.cpu - prev.cpu}).Seconds())
		prev = t
	}
	return rates
}

// rate is the median of the blocks' jobs per second on the clock of.
func (pr *phaseResult) rate(of func(elapsed) time.Duration) float64 { return median(pr.rates(of)) }

// latencies returns each block's q-quantile latency in ms.
func (pr *phaseResult) latencies(q float64) []float64 {
	return blockQuantiles(pr.lat, pr.blockSize(), q)
}

func (s *servedBench) timed(d time.Duration, midway func() error, o *outcome) error {
	var wall, cpu, p50, p90 []float64
	jobs := 0
	for half := 0; half < 2; half++ {
		if half == 1 {
			if err := midway(); err != nil {
				return err
			}
		}
		before := s.runner.Stats()
		pr := s.phase(d/2, false, o)
		s.checkHits(before, pr, o)
		if pr.count() == 0 {
			return errors.New("no job completed")
		}
		wall = append(wall, pr.rates(elapsed.onWall)...)
		cpu = append(cpu, pr.rates(elapsed.onCPU)...)
		p50 = append(p50, pr.latencies(0.5)...)
		p90 = append(p90, pr.latencies(0.9)...)
		jobs += pr.count()
	}
	o.setTiming("ops_per_cpu_s", median(wall), median(cpu), "1/s")
	o.set("lat_p50_ms", median(p50), "ms")
	o.set("lat_p90_ms", median(p90), "ms")
	o.set("ipc_per_mm2", s.ipcPerMM2(), "IPC/mm2")
	fmt.Printf("served-warm: %d jobs, %d latency blocks\n", jobs, len(p50))
	return nil
}

// checkHits checks that the timed phase simulated nothing and that the
// engine served exactly the hits its completed jobs cost when primed.
func (s *servedBench) checkHits(before engine.Stats, pr *phaseResult, o *outcome) {
	after := s.runner.Stats()
	o.check(after.Executed == before.Executed, "the engine executed %d simulations during the timed phase", after.Executed-before.Executed)
	// Failed jobs may have stopped anywhere; only an all-success phase
	// pins the hit count.
	if o.failed == 0 {
		o.check(after.Hits-before.Hits == pr.hits, "engine hits %d during the timed phase, the completed jobs cost %d", after.Hits-before.Hits, pr.hits)
	}
}

// ipcPerMM2 is the mean, over the palette's run jobs, of the served
// simulation's IPC per mm² of the basket configuration.
func (s *servedBench) ipcPerMM2() float64 {
	var vals []float64
	for i, spec := range s.palette {
		if spec.Kind != "run" {
			continue
		}
		var r struct{ IPC float64 }
		if err := json.Unmarshal(s.primed[i], &r); err != nil {
			return 0
		}
		vals = append(vals, r.IPC)
	}
	return mean(vals) / basketArea()
}

// traced runs the first half of the time untraced and the second half
// with every HTTP call timed and each job's span tree fetched before it is
// evicted.
func (s *servedBench) traced(d time.Duration, o *outcome) error {
	mem := startMem()
	plain := s.phase(d/2, false, o)
	alloc, gcs := mem.stop()

	before := s.runner.Stats()
	logBefore := s.logBytes.n.Load()
	journalBefore := fileSize(s.journal)
	tr := s.phase(d/2, true, o)
	s.checkHits(before, tr, o)
	if plain.count() == 0 || tr.count() == 0 {
		return errors.New("no job completed")
	}

	var admission, execute []float64
	perJob := map[string]map[string][]float64{}
	for _, kind := range []string{"run", "evaluate"} {
		v := map[string][]float64{}
		for _, jc := range tr.jobs[kind] {
			v["submit"] = append(v["submit"], ms(jc.submit))
			v["settle"] = append(v["settle"], ms(jc.settle))
			v["result"] = append(v["result"], ms(jc.fetch))
			v["evict"] = append(v["evict"], ms(jc.evict))
			v["events"] = append(v["events"], float64(jc.events))
			v["spans"] = append(v["spans"], float64(jc.spans))
			admission = append(admission, ms(jc.admission))
			execute = append(execute, ms(jc.execute))
		}
		for _, call := range []string{"submit", "settle", "result", "evict"} {
			o.set("server."+call+"_ms."+kind, median(v[call]), "ms")
		}
		// Events and spans are fixed per job kind; check it, so that the
		// mixed per-job means below are exact.
		for _, name := range []string{"events", "spans"} {
			vals := v[name]
			o.check(len(vals) > 0 && quantile(vals, 0) == quantile(vals, 1), "%s jobs: %s per job vary from %v to %v",
				kind, name, quantile(vals, 0), quantile(vals, 1))
		}
		perJob[kind] = v
	}
	// Per-job counts weigh the kinds 3:1, the sequence's mix.
	mix := func(name string) float64 {
		return (3*mean(perJob["run"][name]) + mean(perJob["evaluate"][name])) / 4
	}
	o.exactCount("server.events_per_job", mix("events"), "count")
	o.exactCount("server.spans_per_job", mix("spans"), "count")
	var runHits, evalHits uint64
	for i, h := range s.hits {
		if i < s.runs {
			runHits += h
		} else {
			evalHits += h
		}
	}
	o.exactCount("engine.hits_per_job", (3*float64(runHits)/float64(s.runs)+float64(evalHits)/float64(len(s.hits)-s.runs))/4, "count")
	o.set("server.admission_ms", mean(admission), "ms")
	o.set("server.execute_ms", mean(execute), "ms")
	o.set("server.journal_bytes_per_job", float64(fileSize(s.journal)-journalBefore)/float64(tr.count()), "B")
	o.set("server.log_bytes_per_job", float64(s.logBytes.n.Load()-logBefore)/float64(tr.count()), "B")
	o.set("runtime.alloc_kb_per_op", float64(alloc)/float64(plain.count())/1024, "KB")
	o.set("runtime.gc_per_kop", float64(gcs)/float64(plain.count())*1000, "count")
	o.set("trace.overhead_pct", (plain.rate(elapsed.onCPU)/tr.rate(elapsed.onCPU)-1)*100, "%")
	fmt.Printf("served-warm traced: %d untraced and %d traced jobs\n", plain.count(), tr.count())
	return nil
}

func walkSpans(n *telemetry.SpanNode, fn func(*telemetry.SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, ch := range n.Children {
		walkSpans(ch, fn)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
