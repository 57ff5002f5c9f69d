// Package loadgen replays deterministic job fleets against a running
// hdsmtd and reports what the daemon did under load: per-kind submit→
// settle latencies, backpressure (429/503) and retry counts, SSE event
// lag, timeline completeness, and the engine's cache-hit rate.
//
// The fleet is generated from a seed: same seed, same Config → the same
// job specs in the same order, drawn from a small palette so duplicate
// simulations exercise the engine's memoization deliberately. Everything
// derived only from the fleet and the engine's deterministic counters
// lands in the report's Pinned section, which is byte-identical across
// runs against a fresh daemon; everything touched by wall clock (latency,
// throughput, retry timing, event lag) is quarantined in Timing.
package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"hdsmt/internal/client"
	"hdsmt/internal/engine"
	"hdsmt/internal/server"
	"hdsmt/internal/telemetry"
)

// Config parameterizes one load run. The zero value is not usable: set
// BaseURL; everything else has working defaults.
type Config struct {
	// BaseURL is the daemon under test, e.g. "http://localhost:8080".
	BaseURL string
	// Seed drives fleet generation; same seed = same fleet.
	Seed int64
	// Jobs is the fleet size (default 20).
	Jobs int
	// Mix weights job kinds in the fleet (default run=3, evaluate=2,
	// search=2, pareto=1). Supported kinds: run, evaluate, search, pareto.
	Mix map[string]int
	// Concurrency bounds in-flight jobs in closed-loop mode (default 4).
	Concurrency int
	// Rate, when positive, switches to open-loop mode: submissions are
	// paced at Rate jobs/second regardless of completions.
	Rate float64
	// Stream follows each job's timeline over SSE (measuring event lag)
	// instead of polling status.
	Stream bool
	// Budget/Warmup are the simulation cycle budgets for generated specs
	// (defaults 2000/1000 — small enough for CI, large enough to execute).
	Budget uint64
	Warmup uint64
	// SearchBudget bounds evaluations of generated search/pareto jobs
	// (default 6).
	SearchBudget int
	// APIKey tenants every request, exercising per-tenant quotas.
	APIKey string
}

func (c Config) jobs() int { return defInt(c.Jobs, 20) }
func (c Config) concurrency() int {
	if c.Rate > 0 {
		return c.jobs() // open loop: pacing, not slots, is the limiter
	}
	return defInt(c.Concurrency, 4)
}
func (c Config) budget() uint64    { return defUint(c.Budget, 2000) }
func (c Config) warmup() uint64    { return defUint(c.Warmup, 1000) }
func (c Config) searchBudget() int { return defInt(c.SearchBudget, 6) }
func (c Config) mix() map[string]int {
	if len(c.Mix) > 0 {
		return c.Mix
	}
	return map[string]int{"run": 3, "evaluate": 2, "search": 2, "pareto": 1}
}
func (c Config) mode() string {
	if c.Rate > 0 {
		return "open"
	}
	return "closed"
}

func defInt(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

func defUint(v, d uint64) uint64 {
	if v > 0 {
		return v
	}
	return d
}

// Report is the BENCH_PR8 artifact.
type Report struct {
	Schema string `json:"schema"`
	// Pinned holds only values derived from the seed and the engine's
	// deterministic counters: byte-identical across runs against a fresh
	// daemon. CI diffs this section between two runs.
	Pinned Pinned `json:"pinned"`
	// Timing holds everything wall clock touches; excluded from the
	// reproducibility comparison by construction.
	Timing Timing `json:"timing"`
}

// Pinned is the byte-reproducible section of the report.
type Pinned struct {
	Seed       int64          `json:"seed"`
	Jobs       int            `json:"jobs"`
	Mode       string         `json:"mode"` // closed | open
	Mix        map[string]int `json:"mix"`
	SpecDigest string         `json:"spec_digest"` // sha256 over the fleet's spec JSON
	Kinds      map[string]int `json:"kinds"`       // jobs per kind
	States     map[string]int `json:"states"`      // settled jobs per terminal state
	Failed     int            `json:"failed"`      // jobs that settled failed (or errored client-side)
	Rejected   int            `json:"rejected"`    // submissions refused after retries

	// CompleteTimelines counts jobs whose timeline carries the full
	// accepted→started→settled spine and is closed.
	CompleteTimelines int `json:"complete_timelines"`

	// Engine counter deltas across the run. CacheHitRate is the fraction
	// of engine submissions not executed — memo hits and coalesced joins
	// together — deterministic even though the split between the two is
	// race-dependent.
	EngineSubmitted uint64  `json:"engine_submitted"`
	EngineExecuted  uint64  `json:"engine_executed"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
}

// JSON renders the pinned section alone, for byte comparison.
func (p Pinned) JSON() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Timing is the wall-clock-dependent section of the report.
type Timing struct {
	WallMS     float64                `json:"wall_ms"`
	JobsPerSec float64                `json:"jobs_per_sec"`
	Latency    map[string]Percentiles `json:"latency_ms"` // per kind, submit→settle
	// SSELag is the delay between an event's server-side timestamp and
	// its arrival at the streaming client; present only with Stream.
	SSELag       *Percentiles `json:"sse_lag_ms,omitempty"`
	Requests     int          `json:"http_requests"`
	Status429    int          `json:"http_429"`
	Status503    int          `json:"http_503"`
	Retries      int          `json:"retries"` // backpressure responses that triggered a retry
	StreamEvents int          `json:"stream_events,omitempty"`
}

// Percentiles summarizes a latency sample in milliseconds.
type Percentiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

func percentiles(samples []float64) Percentiles {
	p := Percentiles{N: len(samples)}
	if len(samples) == 0 {
		return p
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	p.P50, p.P95, p.P99 = at(0.50), at(0.95), at(0.99)
	return p
}

// Fleet generates the deterministic job list for cfg: a seeded weighted
// draw over the kind mix, each kind instantiated from a small palette so
// repeats collide in the engine's memoization store on purpose.
func Fleet(cfg Config) []server.JobSpec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mix := cfg.mix()
	kinds := make([]string, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds) // map order must not leak into the draw
	total := 0
	for _, k := range kinds {
		total += mix[k]
	}

	pick := func() string {
		n := rng.Intn(total)
		for _, k := range kinds {
			if n -= mix[k]; n < 0 {
				return k
			}
		}
		return kinds[len(kinds)-1]
	}

	// Palettes are intentionally narrow: with a handful of distinct specs
	// per kind, a 20-job fleet re-submits most simulations several times.
	var (
		runWorkloads  = []string{"2W1", "2W7", "4W6"}
		evalWorkloads = []string{"2W4", "2W8"}
		seeds         = []int64{1, 2, 3}
		strategies    = []string{"random", "aco"}
	)

	specs := make([]server.JobSpec, cfg.jobs())
	for i := range specs {
		spec := server.JobSpec{
			Kind:   pick(),
			Budget: cfg.budget(),
			Warmup: cfg.warmup(),
		}
		switch spec.Kind {
		case "run":
			spec.Config = "M8"
			spec.Workload = runWorkloads[rng.Intn(len(runWorkloads))]
		case "evaluate":
			spec.Config = "M8"
			spec.Workload = evalWorkloads[rng.Intn(len(evalWorkloads))]
			spec.OracleBudget = cfg.budget() / 2
			spec.MaxOracle = 4
		case "search":
			spec.Strategy = strategies[rng.Intn(len(strategies))]
			spec.SearchBudget = cfg.searchBudget()
			spec.Seed = seeds[rng.Intn(len(seeds))]
			spec.Workloads = []string{"2W7"}
		case "pareto":
			spec.Kind = "pareto"
			spec.SearchBudget = cfg.searchBudget()
			spec.Seed = seeds[rng.Intn(len(seeds))]
			spec.Workloads = []string{"2W7"}
		default:
			// Unknown kind in a custom mix: submit as-is and let the
			// server's validation reject it (it will show up as rejected).
		}
		specs[i] = spec
	}
	return specs
}

// specDigest fingerprints the fleet: the pinned sections of two runs can
// only match if they replayed the identical job list.
func specDigest(specs []server.JobSpec) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range specs {
		_ = enc.Encode(s)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// countingTransport counts HTTP exchanges and backpressure responses
// under the client's retry loop.
type countingTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	requests  int
	status429 int
	status503 int
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	t.mu.Lock()
	t.requests++
	if err == nil {
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			t.status429++
		case http.StatusServiceUnavailable:
			t.status503++
		}
	}
	t.mu.Unlock()
	return resp, err
}

// outcome is one job's fate as the generator saw it.
type outcome struct {
	kind       string
	state      string // terminal state, or "rejected" if submission failed
	latencyMS  float64
	timelineOK bool
	lagMS      []float64
	events     int
}

// engineStats reads GET /stats.
func engineStats(ctx context.Context, hc *http.Client, base string) (engine.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return engine.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return engine.Stats{}, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return engine.Stats{}, err
	}
	return st, nil
}

// Run replays the fleet and assembles the report. It returns an error
// only when the daemon is unreachable; individual job failures are data,
// not errors — they land in the report (and Failed/Rejected counts).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	specs := Fleet(cfg)
	ct := &countingTransport{base: http.DefaultTransport}
	hc := &http.Client{Transport: ct, Timeout: 5 * time.Minute}
	opts := []client.Option{client.WithHTTPClient(hc)}
	if cfg.APIKey != "" {
		opts = append(opts, client.WithAPIKey(cfg.APIKey))
	}
	cl := client.New(cfg.BaseURL, opts...)

	before, err := engineStats(ctx, hc, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: daemon unreachable: %w", err)
	}

	outcomes := make([]outcome, len(specs))
	start := time.Now()

	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.concurrency())
	var tick *time.Ticker
	if cfg.Rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer tick.Stop()
	}
	for i := range specs {
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
			}
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = runOne(ctx, cl, cfg, specs[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := engineStats(ctx, hc, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: daemon unreachable: %w", err)
	}

	return assemble(cfg, specs, outcomes, before, after, wall, ct), nil
}

// runOne drives a single job from submission to settlement. Each job
// gets its own trace identity, so a fleet run produces one stitched
// span tree per job at GET /jobs/{id}/trace — identities are
// correlation handles only and never touch the pinned report.
func runOne(ctx context.Context, cl *client.Client, cfg Config, spec server.JobSpec) outcome {
	ctx = telemetry.WithTraceContext(ctx, telemetry.NewTraceContext())
	o := outcome{kind: spec.Kind}
	t0 := time.Now()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		o.state = "rejected"
		return o
	}
	// Event timestamps are relative to server-side acceptance, which
	// happened just before Submit returned; accepted anchors lag
	// measurement to the closest client-side instant.
	accepted := time.Now()

	if cfg.Stream {
		_ = cl.Stream(ctx, st.ID, 0, func(ev server.Event) error {
			lag := time.Since(accepted).Seconds()*1e3 - ev.TMS
			if lag < 0 {
				lag = 0
			}
			o.lagMS = append(o.lagMS, lag)
			o.events++
			return nil
		})
		st, err = cl.Status(ctx, st.ID)
	} else {
		st, err = cl.Wait(ctx, st.ID)
	}
	o.latencyMS = time.Since(t0).Seconds() * 1e3
	if err != nil {
		o.state = "failed"
		return o
	}
	o.state = st.State

	if page, err := cl.Events(ctx, st.ID); err == nil {
		o.timelineOK = page.Closed && hasSpine(page.Events)
		if o.events == 0 {
			o.events = len(page.Events)
		}
	}
	return o
}

// hasSpine checks the accepted→started→settled backbone of a timeline.
func hasSpine(events []server.Event) bool {
	var accepted, started, settled bool
	for _, ev := range events {
		switch ev.Type {
		case server.EventAccepted:
			accepted = true
		case server.EventStarted:
			started = true
		case server.EventSettled:
			settled = true
		}
	}
	return accepted && started && settled
}

func assemble(cfg Config, specs []server.JobSpec, outcomes []outcome, before, after engine.Stats, wall time.Duration, ct *countingTransport) *Report {
	p := Pinned{
		Seed:       cfg.Seed,
		Jobs:       cfg.jobs(),
		Mode:       cfg.mode(),
		Mix:        cfg.mix(),
		SpecDigest: specDigest(specs),
		Kinds:      map[string]int{},
		States:     map[string]int{},
	}
	lat := map[string][]float64{}
	var lags []float64
	events := 0
	for _, o := range outcomes {
		p.Kinds[o.kind]++
		switch o.state {
		case "rejected":
			p.Rejected++
			continue
		case "failed":
			p.Failed++
		}
		p.States[o.state]++
		if o.timelineOK {
			p.CompleteTimelines++
		}
		lat[o.kind] = append(lat[o.kind], o.latencyMS)
		lags = append(lags, o.lagMS...)
		events += o.events
	}
	p.EngineSubmitted = after.Submitted - before.Submitted
	p.EngineExecuted = after.Executed - before.Executed
	if p.EngineSubmitted > 0 {
		p.CacheHitRate = 1 - float64(p.EngineExecuted)/float64(p.EngineSubmitted)
	}

	t := Timing{
		WallMS:    wall.Seconds() * 1e3,
		Latency:   map[string]Percentiles{},
		Requests:  ct.requests,
		Status429: ct.status429,
		Status503: ct.status503,
		Retries:   ct.status429 + ct.status503,
	}
	if wall > 0 {
		t.JobsPerSec = float64(len(outcomes)) / wall.Seconds()
	}
	for kind, samples := range lat {
		t.Latency[kind] = percentiles(samples)
	}
	if cfg.Stream {
		pl := percentiles(lags)
		t.SSELag = &pl
		t.StreamEvents = events
	}
	return &Report{Schema: "hdsmt-bench-pr8/v1", Pinned: p, Timing: t}
}
