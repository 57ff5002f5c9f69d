// Package server exposes the batch-simulation engine over HTTP: clients
// submit runs, evaluations or whole sweeps as asynchronous jobs, poll
// their progress, and fetch aggregated results. All jobs on one server
// share one sim.Runner — and therefore one memoization store, so a client
// resubmitting an overlapping sweep only pays for the cells nobody has
// simulated yet.
//
//	POST   /jobs             submit a job; returns {"id": ...}
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        job status and progress
//	GET    /jobs/{id}/result aggregated result JSON (200 once done;
//	                         404 unknown id, 409 any unsettled or
//	                         unsuccessful state)
//	POST   /jobs/{id}/cancel cancel a pending or running job (202;
//	                         404 unknown id, 409 already settled)
//	DELETE /jobs/{id}        cancel a running job, or evict a settled one
//	GET    /stats            engine counters (hits, executed, ...)
//	GET    /healthz          liveness
//
// The server is built to survive abuse and crashes: submissions pass an
// admission controller (per-tenant quotas, token-bucket rate limiting and
// a bounded priority queue — rejections are 429 with Retry-After, never a
// blocked client), every job transition is journaled to an append-only
// JSONL file so a restarted daemon re-lists, resumes or cleanly
// interrupts every job it ever accepted, and a panicking job fails alone
// instead of taking the daemon down.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdsmt/internal/config"
	"hdsmt/internal/mapping"
	"hdsmt/internal/obslog"
	"hdsmt/internal/pareto"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/tshist"
	"hdsmt/internal/version"
	"hdsmt/internal/workload"
)

// JobSpec is the body of POST /jobs.
type JobSpec struct {
	// Kind selects the job type:
	//   "run"      — one simulation: Config, Workload, optional Mapping
	//                (default: §2.1 heuristic). Result: core.Results.
	//   "evaluate" — BEST/HEUR/WORST measurement for Config × Workload.
	//                Result: sim.Measurement.
	//   "sweep"    — evaluate every Configs × Workloads cell (defaults:
	//                the paper's six configurations × all workloads).
	//                Result: {"measurements": [...]}.
	//   "search"   — metaheuristic design-space search (internal/search):
	//                Strategy over an enriched configuration space, on the
	//                server's shared engine. Progress counts evaluations
	//                against SearchBudget; DELETE cancels mid-search.
	//                Result: search.Result (best point + trajectory).
	//   "pareto"   — multi-objective search over Objectives (default
	//                ipc,area,fairness; Strategy defaults to nsga2).
	//                Same space/budget/cancellation contract as "search";
	//                Result: search.Result with the non-dominated front
	//                and its hypervolume trajectory.
	Kind string `json:"kind"`

	// Priority orders the accept queue when the server is saturated:
	// higher launches first, FIFO within a priority. Ignored while an
	// active slot is free.
	Priority int `json:"priority,omitempty"`

	// TimeoutSec caps this job's wall-clock execution; past it the job
	// settles as failed (deadline exceeded). 0 means the server's
	// per-kind default (WithDeadlines), which may be unlimited; otherwise
	// the smaller of the two applies. A negative value, or one a
	// time.Duration cannot hold, is rejected with 400.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	Config    string   `json:"config,omitempty"`
	Configs   []string `json:"configs,omitempty"`
	Workload  string   `json:"workload,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Mapping   []int    `json:"mapping,omitempty"`

	// Budget/Warmup default to sim.DefaultOptions; OracleBudget defaults
	// to Budget; MaxOracle 0 means exhaustive.
	Budget       uint64 `json:"budget,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
	OracleBudget uint64 `json:"oracle_budget,omitempty"`
	MaxOracle    int    `json:"max_oracle,omitempty"`

	// search jobs only. Strategy is one of search.StrategyNames (pareto
	// jobs default it to nsga2).
	// SearchBudget bounds charged point evaluations (required for the
	// guided strategies, ignored for exhaustive — a truncated enumeration
	// would be a false ground truth); Seed drives the strategy's
	// randomness (fixed seed =
	// reproducible trajectory). The space starts from search.EnrichedSpace
	// when Enriched is set, search.NewSpace otherwise (MaxPipes defaults
	// to 4), and any explicitly given axis overrides the default; the
	// Workloads field above selects the evaluation set (default: all).
	Strategy       string   `json:"strategy,omitempty"`
	SearchBudget   int      `json:"search_budget,omitempty"`
	Seed           int64    `json:"seed,omitempty"`
	Enriched       bool     `json:"enriched,omitempty"`
	MaxPipes       int      `json:"max_pipes,omitempty"`
	AreaCap        float64  `json:"area_cap,omitempty"`
	Policies       []string `json:"policies,omitempty"`
	RemapIntervals []uint64 `json:"remap_intervals,omitempty"`
	QueueScales    []int    `json:"queue_scales,omitempty"`
	FetchBufScales []int    `json:"fetch_buf_scales,omitempty"`

	// pareto jobs only. Objectives lists the objective keys (2+ metric
	// names from the registry — ipc, area, fairness, energy, per_area, ed,
	// ed2; empty = ipc,area,fairness; names are validated against the
	// registry at submit time) and ArchiveCap bounds the non-dominated
	// archive (0 = default). Archive, when non-empty, names a persisted
	// archive file in the server's archive directory (New's dir option):
	// the job's non-dominated front is checkpointed there on every change,
	// and a later pareto job submitted with the same name — e.g. after the
	// first was canceled — restores the front instead of rediscovering it.
	// Archive-backed pareto jobs are also the resumable class after a
	// daemon crash: replay relaunches them from their checkpoint.
	Objectives []string `json:"objectives,omitempty"`
	ArchiveCap int      `json:"archive_cap,omitempty"`
	Archive    string   `json:"archive,omitempty"`
}

func (s JobSpec) options() sim.Options {
	opt := sim.DefaultOptions()
	if s.Budget > 0 {
		opt.Budget = s.Budget
	}
	if s.Warmup > 0 {
		opt.Warmup = s.Warmup
	}
	opt.OracleBudget = s.OracleBudget
	opt.MaxOracle = s.MaxOracle
	return opt
}

// Progress counts a job's completed cells (one cell = one evaluation or
// run; a cell may expand to many simulations inside the engine).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Status is the body of GET /jobs/{id}.
type Status struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	// RequestID is the correlation ID bound to this job at admission —
	// the client's X-Request-ID, or server-minted. Every log line, trace
	// span and timeline event of the job carries it.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the distributed-trace identity bound at admission — the
	// client's traceparent, or server-minted. GET /jobs/{id}/trace serves
	// the span tree recorded under it.
	TraceID  string   `json:"trace_id,omitempty"`
	State    string   `json:"state"` // pending|running|done|failed|canceled|interrupted
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
	Created  string   `json:"created,omitempty"`
	Finished string   `json:"finished,omitempty"`

	// Front and Hypervolume stream a pareto job's incumbent non-dominated
	// front mid-run: they update on every archive change, so a client
	// polling GET /jobs/{id} watches the front grow instead of waiting for
	// the final result.
	Front       []search.TrajectoryPoint `json:"front,omitempty"`
	Hypervolume float64                  `json:"hypervolume,omitempty"`
}

// SweepResult is the result payload of a "sweep" job: one measurement per
// (config, workload) cell, configs outer, workloads inner.
type SweepResult struct {
	Measurements []sim.Measurement `json:"measurements"`
}

// settled reports whether state is terminal. "interrupted" counts: a
// crash-orphaned job will never progress, only be inspected or evicted.
func settledState(state string) bool {
	switch state {
	case "done", "failed", "canceled", "interrupted":
		return true
	}
	return false
}

type job struct {
	id        string
	spec      JobSpec
	tenant    string
	requestID string
	cancel    context.CancelFunc
	// tl is the job's event timeline (bounded ring + SSE subscribers);
	// log is the server logger with the job's correlation fields bound,
	// so every record names job, tenant and request ID.
	tl  *timeline
	log *obslog.Logger
	// trace is the job's bounded span buffer, rooted at the client's
	// traceparent span; execSpan is the pre-minted ID of the execute span
	// (started→settled) — minted before launch so engine spans recorded
	// mid-flight parent to it.
	trace    *telemetry.JobTrace
	execSpan string

	mu       sync.Mutex
	state    string
	errmsg   string
	result   any
	done     int
	total    int
	created  time.Time
	started  time.Time
	finished time.Time
	front    []search.TrajectoryPoint
	hv       float64
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		Kind:        j.spec.Kind,
		Tenant:      j.tenant,
		RequestID:   j.requestID,
		TraceID:     j.trace.Context().TraceID,
		State:       j.state,
		Error:       j.errmsg,
		Progress:    Progress{Done: j.done, Total: j.total},
		Created:     j.created.UTC().Format(time.RFC3339),
		Front:       j.front,
		Hypervolume: j.hv,
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339)
	}
	return st
}

// Server is the HTTP job server. Create one with New and mount Handler.
type Server struct {
	runner *sim.Runner
	// archiveDir, when non-empty, hosts named pareto-archive files
	// (JobSpec.Archive); meant to sit next to the engine's journal and
	// cache directory so a restarted daemon resumes both simulations and
	// fronts.
	archiveDir string

	// jj is the durable job journal (WithJobJournal); nil disables
	// durability and the server reverts to in-memory jobs only.
	jj          *jobJournal
	journalPath string

	adm       *admission
	deadlines map[string]time.Duration
	maxBody   int64
	draining  atomic.Bool
	drainCh   chan struct{}  // closed once by Drain; ends live SSE streams
	ready     atomic.Bool    // journal replayed; flips in New
	wg        sync.WaitGroup // every accepted-and-launched job; Drain waits on it

	// log receives the server's structured records; per-job children bind
	// job ID, tenant and request ID so no line is uncorrelated.
	log *obslog.Logger

	// SSE tuning: heartbeat period for idle streams and the per-job
	// timeline ring capacity. Options override both (tests shrink them).
	sseHeartbeat time.Duration
	timelineCap  int

	// traceSpanCap bounds each job's span buffer (WithTraceSpanCap);
	// feed is the server-wide event firehose behind GET /events — every
	// job's timeline events, stamped with the job ID, in one stream.
	traceSpanCap int
	feed         *timeline

	// hist, when set (WithHistory), serves GET /metrics/history and the
	// SLO detail on /readyz. The owner runs its sampling loop.
	hist *tshist.Sampler

	// reg backs GET /metrics and the per-kind job instruments below. Pass
	// the same registry to the runner's engine.Options (WithTelemetry) so
	// one scrape covers both layers; without the option a private registry
	// exposes the server families alone.
	reg           *telemetry.Registry
	jobsTotal     *telemetry.CounterVec
	jobSeconds    *telemetry.HistogramVec
	jobInflight   *telemetry.Gauge
	rejected      *telemetry.CounterVec
	httpResponses *telemetry.CounterVec
	jobPanics     *telemetry.Counter
	recovered     *telemetry.CounterVec
	journalTorn   *telemetry.Counter
	sseStreams    *telemetry.Gauge
	sseEvents     *telemetry.Counter
	jobEvents     *telemetry.Counter

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	// archives maps a claimed archive path to the running job holding it:
	// two concurrent jobs checkpointing the same file would silently
	// clobber each other's front, so a name is exclusive until its job
	// settles.
	archives map[string]string
}

// Option customizes a Server.
type Option func(*Server)

// WithArchiveDir enables named pareto-archive persistence under dir
// (created on first use).
func WithArchiveDir(dir string) Option {
	return func(s *Server) { s.archiveDir = dir }
}

// WithTelemetry scrapes reg at GET /metrics and registers the server's
// per-kind job instruments there. Hand the same registry to the engine
// (engine.Options.Telemetry) so one scrape covers request handling,
// search progress and simulation cache behavior together.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithJobJournal makes the job table durable: every accepted job and
// every state transition appends to the JSONL file at path, and New
// replays the file so a restarted daemon re-lists settled jobs, resumes
// archive-backed pareto jobs, and marks everything else interrupted.
func WithJobJournal(path string) Option {
	return func(s *Server) { s.journalPath = path }
}

// WithAdmission bounds what the server accepts; see AdmissionConfig.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.adm = newAdmission(cfg) }
}

// WithDeadlines sets per-kind default execution deadlines (job kind →
// wall-clock cap); JobSpec.TimeoutSec may lower it per job (the smaller
// wins). A job past its deadline settles as failed, freeing its admission
// slot.
func WithDeadlines(d map[string]time.Duration) Option {
	return func(s *Server) {
		s.deadlines = make(map[string]time.Duration, len(d))
		for k, v := range d {
			s.deadlines[k] = v
		}
	}
}

// WithMaxBodyBytes caps the POST /jobs request body (default 1 MiB);
// larger specs are rejected with 413 before any decoding work.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithLogger sets the server's structured logger (default: the process
// logger). The server binds component/job/tenant/request ID fields
// itself; hand it a child with deployment fields if needed.
func WithLogger(lg *obslog.Logger) Option {
	return func(s *Server) { s.log = lg }
}

// WithSSEHeartbeat sets the idle-stream heartbeat period (default 15s).
// Tests shrink it to observe heartbeats quickly.
func WithSSEHeartbeat(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.sseHeartbeat = d
		}
	}
}

// WithTimelineCap bounds each job's in-memory event ring (default 512).
// When a job outgrows it, the oldest events are dropped from the ring
// (sequence numbers expose the gap); the durable lifecycle events remain
// in the job journal regardless.
func WithTimelineCap(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.timelineCap = n
		}
	}
}

// WithTraceSpanCap bounds each job's span buffer (default
// telemetry.DefaultJobTraceCap). A job outgrowing it drops its oldest
// spans — eviction degrades detail, never the tree's connectivity.
func WithTraceSpanCap(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.traceSpanCap = n
		}
	}
}

// WithHistory serves sampler's windowed view at GET /metrics/history and
// its SLO status in the /readyz detail. The caller owns the sampling
// loop (sampler.Run); build the sampler over the same registry passed to
// WithTelemetry or the windows will be empty.
func WithHistory(sampler *tshist.Sampler) Option {
	return func(s *Server) { s.hist = sampler }
}

// New builds a Server executing jobs on r. The caller keeps ownership of
// r (and closes it after shutting the HTTP listener down, after Close on
// the server). The only error source is the job journal: an unreadable
// or unopenable journal file refuses to start rather than silently
// running non-durable.
func New(r *sim.Runner, opts ...Option) (*Server, error) {
	s := &Server{
		runner:       r,
		jobs:         map[string]*job{},
		archives:     map[string]string{},
		maxBody:      1 << 20,
		sseHeartbeat: 15 * time.Second,
		timelineCap:  defaultTimelineCap,
		traceSpanCap: telemetry.DefaultJobTraceCap,
		drainCh:      make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	// The firehose outlives every job, so terminal job events must not
	// close it; timestamps are relative to server start.
	s.feed = newTimeline(time.Now(), s.timelineCap)
	s.feed.neverClose = true
	if s.log == nil {
		s.log = obslog.Default()
	}
	s.log = s.log.With(obslog.F("component", "server"))
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	if s.adm == nil {
		s.adm = newAdmission(AdmissionConfig{})
	}
	s.jobsTotal = s.reg.CounterVec(telemetry.MetricServerJobs,
		"jobs accepted, by kind", "kind")
	s.jobSeconds = s.reg.HistogramVec(telemetry.MetricServerJobSeconds,
		"job duration from acceptance to settlement, by kind", "kind", nil)
	s.jobInflight = s.reg.Gauge(telemetry.MetricServerInflight,
		"jobs currently executing")
	s.rejected = s.reg.CounterVec(telemetry.MetricServerRejected,
		"submissions rejected by admission control or limits, by reason", "reason")
	s.httpResponses = s.reg.CounterVec(telemetry.MetricServerHTTPResponses,
		"HTTP responses by status class (2xx/4xx/5xx); the availability SLO's event stream", "class")
	s.jobPanics = s.reg.Counter(telemetry.MetricServerJobPanics,
		"job goroutine panics contained (the job failed; the daemon survived)")
	s.recovered = s.reg.CounterVec(telemetry.MetricServerRecovered,
		"jobs recovered from the job journal at startup, by outcome", "outcome")
	s.journalTorn = s.reg.Counter(telemetry.MetricServerJournalTorn,
		"truncated or corrupt job-journal lines skipped at load")
	s.reg.GaugeFunc(telemetry.MetricServerPending,
		"jobs queued by admission control awaiting an active slot",
		func() float64 { return float64(s.adm.pendingLen()) })
	s.sseStreams = s.reg.Gauge(telemetry.MetricServerSSEStreams,
		"live SSE event streams currently open")
	s.sseEvents = s.reg.Counter(telemetry.MetricServerSSEEvents,
		"events delivered over SSE streams (heartbeats excluded)")
	s.jobEvents = s.reg.Counter(telemetry.MetricServerJobEvents,
		"job timeline events recorded, all jobs")
	s.reg.Info(telemetry.MetricBuildInfo, "build metadata", [][2]string{
		{"version", version.Version}, {"goversion", version.Go()},
	})

	if s.journalPath != "" {
		jj, events, torn, err := openJobJournal(s.journalPath)
		if err != nil {
			return nil, err
		}
		s.jj = jj
		s.journalTorn.Add(float64(torn))
		s.replay(events)
	}
	s.ready.Store(true)
	return s, nil
}

// Close flushes and closes the job journal. Call after the HTTP listener
// is down and Drain has returned.
func (s *Server) Close() error { return s.jj.Close() }

// replay reconstructs the job table from journal events and disposes of
// every job left unfinished by the previous incarnation: settled jobs are
// re-listed with their results, archive-backed pareto jobs are resumed
// from their checkpoint, and everything else is marked interrupted — a
// terminal, inspectable state — so no accepted job silently vanishes.
func (s *Server) replay(events []jobEvent) {
	for _, ev := range events {
		switch ev.Event {
		case "accepted":
			if ev.Spec == nil || ev.ID == "" {
				continue
			}
			j := &job{
				id:        ev.ID,
				spec:      *ev.Spec,
				tenant:    ev.Tenant,
				requestID: ev.RequestID,
				cancel:    func() {},
				state:     "pending",
				created:   parseRFC3339(ev.Created),
			}
			// The trace identity survives the restart (journaled at
			// accept); the spans themselves do not — they are debugging
			// state, not results. Pre-PR-9 journals lack the field: mint.
			tc, ok := telemetry.ParseTraceparent(ev.Traceparent)
			if !ok {
				tc = telemetry.NewTraceContext()
			}
			j.trace = telemetry.NewJobTrace(tc, s.traceSpanCap)
			j.execSpan = j.trace.NewSpanID()
			j.tl = newTimeline(j.created, s.timelineCap)
			j.log = s.jobLogger(j)
			s.jobs[ev.ID] = j
			var n int
			if _, err := fmt.Sscanf(ev.ID, "job-%d", &n); err == nil && n > s.nextID {
				s.nextID = n
			}
		case "running":
			if j, ok := s.jobs[ev.ID]; ok {
				j.state = "running"
			}
		case "done", "failed", "canceled", "interrupted":
			j, ok := s.jobs[ev.ID]
			if !ok {
				continue
			}
			j.state = ev.Event
			j.errmsg = ev.Error
			j.finished = parseRFC3339(ev.Finished)
			if len(ev.Result) > 0 {
				j.result = ev.Result // raw JSON, served verbatim by /result
			}
		case "evicted":
			delete(s.jobs, ev.ID)
		}
		// Any record may carry its durable timeline event; it re-enters
		// the ring after the record's state effect, with its original
		// sequence number and relative timestamp, so a restarted daemon
		// still serves the accepted→… history. Older journals wrote it
		// in a separate "timeline" record, which replays the same way.
		if j, ok := s.jobs[ev.ID]; ok && ev.TL != nil {
			j.tl.restore(*ev.TL)
		}
	}

	for _, j := range s.jobs {
		switch {
		case settledState(j.state):
			s.recovered.With("settled").Inc()
		case j.spec.Kind == "pareto" && j.spec.Archive != "":
			s.resume(j)
		default:
			s.interrupt(j)
		}
	}
}

// resume relaunches a crash-orphaned archive-backed pareto job: the
// persisted archive restores its front and the engine's memoization
// absorbs any cells it had already simulated, so the rerun only pays for
// the remainder. Falls back to interrupt when the spec no longer
// resolves (e.g. the daemon restarted without -archives).
func (s *Server) resume(j *job) {
	sp, st, opts, err := s.resolveSearch(j.spec)
	if err != nil {
		s.interrupt(j)
		return
	}
	if opts.ArchivePath != "" {
		if _, ok := s.claimArchive(opts.ArchivePath, j.id); !ok {
			s.interrupt(j)
			return
		}
	}
	ctx, cancel := s.jobContext(j.spec, j.requestID, j)
	j.cancel = cancel
	j.total = opts.Budget
	s.recovered.With("resumed").Inc()
	s.event(j, EventRetried, "resumed from archive after daemon restart", nil)
	j.log.Info("job resumed after restart", obslog.F("archive", j.spec.Archive))
	s.adm.adopt(j.tenant)
	s.wg.Add(1)
	go s.runJob(ctx, j, func(ctx context.Context, j *job) (any, error) {
		return s.searchBody(ctx, j, sp, st, opts)
	})
}

// interrupt settles a crash-orphaned job that cannot be resumed.
func (s *Server) interrupt(j *job) {
	j.state = "interrupted"
	j.errmsg = "daemon restarted while the job was unfinished; not resumable"
	j.finished = time.Now()
	s.recovered.With("interrupted").Inc()
	s.event(j, EventInterrupted, j.errmsg,
		&jobEvent{Event: "interrupted", Error: j.errmsg, Finished: rfc3339(j.finished)})
}

// Drain stops accepting jobs (submissions get 503) and waits until every
// accepted job — active or queued — settles, or ctx expires. Pair with
// http.Server.Shutdown for a clean SIGTERM: stop the listener, drain the
// jobs, close the engine.
func (s *Server) Drain(ctx context.Context) error {
	// The flag flips under s.mu, the same lock newJob registers under, so
	// no job can slip into the WaitGroup after the drain decides its
	// membership — wg.Add never races wg.Wait from zero.
	s.mu.Lock()
	if !s.draining.Swap(true) {
		// Live SSE streams end now: they are reads, not jobs, and must
		// not hold http.Server.Shutdown open for the heartbeat interval.
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

// Handler returns the server's route mux, wrapped so every request gets
// a correlation ID: an incoming X-Request-ID is adopted (sanitized), a
// missing one is minted, and either way the ID is echoed on the response
// and bound to the request context for logs, jobs and timelines.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancelPost)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /events", s.handleEventsFeed)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/history", s.handleHistory)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.withRequestID(mux)
}

// withRequestID is the correlation middleware described on Handler. It
// handles both correlation headers the same way — adopt after strict
// validation, mint otherwise, echo on the response, bind to the request
// context — and counts every response by status class, the event stream
// the availability SLO burns against.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obslog.SanitizeRequestID(r.Header.Get(obslog.HeaderRequestID))
		if rid == "" {
			rid = obslog.NewRequestID()
		}
		// traceparent mirrors X-Request-ID: a malformed header — wrong
		// length, bad hex, all-zero IDs — is replaced, never half-trusted.
		tc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.HeaderTraceparent))
		if !ok {
			tc = telemetry.NewTraceContext()
		}
		w.Header().Set(obslog.HeaderRequestID, rid)
		w.Header().Set(telemetry.HeaderTraceparent, tc.Traceparent())
		ctx := obslog.WithRequestID(r.Context(), rid)
		ctx = telemetry.WithTraceContext(ctx, tc)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		// The metrics plane does not observe itself: counting scrapes
		// would make two scrapes of an idle server differ (each sees the
		// previous one), and the availability SLO is about job traffic,
		// not the scraper's.
		if r.URL.Path != "/metrics" && r.URL.Path != "/metrics/history" {
			s.httpResponses.With(sw.class()).Inc()
		}
		if s.log.Enabled(obslog.LevelDebug) {
			s.log.Debug("http request",
				obslog.F("method", r.Method), obslog.F("path", r.URL.Path),
				obslog.F("request_id", rid), obslog.F("trace_id", tc.TraceID),
				obslog.F("status", sw.status()))
		}
	})
}

// statusWriter captures the response status for the per-class counter.
// It forwards Flush so SSE streaming keeps working through the wrapper
// (a transport that cannot flush gets a no-op, matching net/http's
// behavior of buffering until the handler returns).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code, sw.wrote = code, true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.code, sw.wrote = http.StatusOK, true
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *statusWriter) status() int {
	if !sw.wrote {
		return http.StatusOK
	}
	return sw.code
}

func (sw *statusWriter) class() string {
	return fmt.Sprintf("%dxx", sw.status()/100)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// Orchestrators restart on its failure, so it must never depend on load,
// drains or journal state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the job journal has been replayed and the
// engine is accepting work, and the server is not draining. Load
// balancers route on it, so a draining daemon reports 503 to shed
// traffic while /healthz stays green.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	body := map[string]any{
		"version": version.Version,
		"jobs":    jobs,
	}
	// SLO status is detail, not a readiness gate: flipping readiness on a
	// burn would shed load from an already-struggling daemon and turn a
	// latency breach into an availability outage.
	if s.hist != nil {
		slos := map[string]string{}
		breach := false
		for _, st := range s.hist.History().SLOs {
			slos[st.Name] = st.Status
			breach = breach || st.Breach
		}
		body["slos"] = slos
		body["slo_breach"] = breach
	}
	switch {
	case s.draining.Load():
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case !s.ready.Load() || !s.runner.Accepting():
		body["status"] = "not ready"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
	}
}

// handleMetrics renders the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleHistory serves the sampler's windowed view — rates, quantiles
// and SLO burn — as JSON (schema tshist.SchemaVersion). 404 when the
// daemon runs without a sampler.
func (s *Server) handleHistory(w http.ResponseWriter, _ *http.Request) {
	if s.hist == nil {
		httpError(w, http.StatusNotFound,
			errors.New("metrics history is disabled on this server"))
		return
	}
	writeJSON(w, http.StatusOK, s.hist.History())
}

// TracePage is the body of GET /jobs/{id}/trace: the assembled span tree
// rooted at the span the client named in its traceparent header.
type TracePage struct {
	ID        string `json:"id"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id"`
	State     string `json:"state"`
	Spans     int    `json:"spans"`
	// Dropped counts spans evicted from the bounded buffer; evicted
	// spans' children re-attach to the root, so the tree stays connected.
	Dropped uint64              `json:"dropped,omitempty"`
	Root    *telemetry.SpanNode `json:"root"`
}

// handleTrace serves a job's span tree — live or settled — as JSON, or
// as Chrome trace_event JSON with ?format=chrome for about://tracing
// and Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = j.trace.WriteChrome(w)
		return
	}
	spans, dropped := j.trace.Snapshot()
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, TracePage{
		ID:        j.id,
		RequestID: j.requestID,
		TraceID:   j.trace.Context().TraceID,
		State:     state,
		Spans:     len(spans),
		Dropped:   dropped,
		Root:      j.trace.Tree(),
	})
}

// resolve validates a spec fully at submit time — its timeout, then its
// cells or its search space — and returns the job's initial progress
// total, the pareto archive it claims (empty for none) and the body that
// executes it.
func (s *Server) resolve(spec JobSpec) (total int, archivePath string, body func(context.Context, *job) (any, error), err error) {
	if _, err := specTimeout(spec); err != nil {
		return 0, "", nil, err
	}
	switch spec.Kind {
	case "search", "pareto":
		sp, st, opts, err := s.resolveSearch(spec)
		if err != nil {
			return 0, "", nil, err
		}
		return opts.Budget, opts.ArchivePath, func(ctx context.Context, j *job) (any, error) {
			return s.searchBody(ctx, j, sp, st, opts)
		}, nil
	default:
		cells, err := resolveCells(spec)
		if err != nil {
			return 0, "", nil, err
		}
		return len(cells), "", func(ctx context.Context, j *job) (any, error) {
			return s.cellsBody(ctx, j, cells)
		}, nil
	}
}

// resolveCells expands a spec into its (config, workload) cells at submit
// time, so malformed specs fail synchronously with 400 rather than
// asynchronously.
func resolveCells(spec JobSpec) ([]sim.SweepCell, error) {
	switch spec.Kind {
	case "run", "evaluate":
		if spec.Config == "" || spec.Workload == "" {
			return nil, fmt.Errorf("%s job needs config and workload", spec.Kind)
		}
		cfg, err := config.Parse(spec.Config)
		if err != nil {
			return nil, err
		}
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			return nil, err
		}
		if spec.Kind == "run" && spec.Mapping != nil {
			// Validate against the thread-stretched configuration: the
			// monolithic baseline accepts up to 6 threads (paper §3).
			if got, want := len(spec.Mapping), w.Threads(); got != want {
				return nil, fmt.Errorf("mapping covers %d threads, workload has %d", got, want)
			}
			if err := mapping.Validate(cfg.ForThreads(w.Threads()), spec.Mapping); err != nil {
				return nil, err
			}
		}
		return []sim.SweepCell{{Cfg: cfg, W: w}}, nil
	case "sweep":
		var cfgs []config.Microarch
		if len(spec.Configs) == 0 {
			cfgs = config.EvaluatedMicroarchs()
		} else {
			for _, name := range spec.Configs {
				cfg, err := config.Parse(name)
				if err != nil {
					return nil, err
				}
				cfgs = append(cfgs, cfg)
			}
		}
		wls, err := resolveWorkloads(spec.Workloads)
		if err != nil {
			return nil, err
		}
		cells := make([]sim.SweepCell, 0, len(cfgs)*len(wls))
		for _, cfg := range cfgs {
			for _, w := range wls {
				cells = append(cells, sim.SweepCell{Cfg: cfg, W: w})
			}
		}
		return cells, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want run, evaluate, sweep, search or pareto)", spec.Kind)
	}
}

// resolveWorkloads resolves named workloads, or every workload when none
// are named.
func resolveWorkloads(names []string) ([]workload.Workload, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	wls := make([]workload.Workload, 0, len(names))
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		wls = append(wls, w)
	}
	return wls, nil
}

// resolveSearch validates a search or pareto spec at submit time and
// assembles its space, strategy and driver options. Pareto jobs default
// the strategy to nsga2 and carry an objective list (default
// ipc,area,fairness — names resolved against the metric registry, so a
// typo'd objective 400s with the list of known metrics); search jobs stay
// scalar and ignore Objectives.
func (s *Server) resolveSearch(spec JobSpec) (search.Space, search.Strategy, search.Options, error) {
	var zero search.Space
	strategy := spec.Strategy
	if strategy == "" && spec.Kind == "pareto" {
		strategy = "nsga2"
	}
	st, err := search.ByName(strategy)
	if err != nil {
		return zero, nil, search.Options{}, err
	}
	budget := spec.SearchBudget
	if strategy == "exhaustive" {
		// Exhaustive results are only trustworthy un-truncated: the
		// enumeration terminates on its own, so the budget is ignored
		// rather than allowed to silently cut the ground truth short.
		budget = 0
	} else if budget <= 0 {
		return zero, nil, search.Options{}, fmt.Errorf("%s search needs a positive search_budget", strategy)
	}

	wls, err := resolveWorkloads(spec.Workloads)
	if err != nil {
		return zero, nil, search.Options{}, err
	}
	maxPipes := spec.MaxPipes
	if maxPipes <= 0 {
		maxPipes = 4
	}
	sp := search.NewSpace(maxPipes, spec.AreaCap, wls)
	if spec.Enriched {
		sp = search.EnrichedSpace(maxPipes, spec.AreaCap, wls)
	}
	if len(spec.Policies) > 0 {
		sp.Policies = spec.Policies
	}
	if len(spec.RemapIntervals) > 0 {
		sp.RemapIntervals = spec.RemapIntervals
	}
	if len(spec.QueueScales) > 0 {
		sp.QueueScales = spec.QueueScales
	}
	if len(spec.FetchBufScales) > 0 {
		sp.FetchBufScales = spec.FetchBufScales
	}
	if err := sp.Validate(); err != nil {
		return zero, nil, search.Options{}, err
	}
	opts := search.Options{
		Budget: budget,
		Seed:   spec.Seed,
		Sim:    spec.options(),
	}
	switch spec.Kind {
	case "pareto":
		csv := "ipc,area,fairness"
		if len(spec.Objectives) > 0 {
			csv = strings.Join(spec.Objectives, ",")
		}
		objs, err := pareto.Parse(csv)
		if err != nil {
			return zero, nil, search.Options{}, err
		}
		if spec.ArchiveCap < 0 {
			return zero, nil, search.Options{}, fmt.Errorf("archive_cap %d must not be negative (0 = default)", spec.ArchiveCap)
		}
		opts.Objectives = objs
		opts.ArchiveCap = spec.ArchiveCap
		if spec.Archive != "" {
			path, err := s.archivePath(spec.Archive)
			if err != nil {
				return zero, nil, search.Options{}, err
			}
			opts.ArchivePath = path
		}
	default:
		// Scalar searches must not silently drop multi-objective fields: a
		// client that meant "pareto" would otherwise get a frontless result
		// with a 200.
		if len(spec.Objectives) > 0 || spec.ArchiveCap != 0 || spec.Archive != "" {
			return zero, nil, search.Options{}, fmt.Errorf("objectives/archive_cap/archive need kind \"pareto\", not %q", spec.Kind)
		}
	}
	return sp, st, opts, nil
}

// archivePath resolves a client-chosen archive name inside the server's
// archive directory. Names are restricted to a flat namespace — no path
// separators or dot-prefixes — so a job spec cannot write outside the
// directory the operator configured.
func (s *Server) archivePath(name string) (string, error) {
	if s.archiveDir == "" {
		return "", fmt.Errorf("this server has no archive directory (start hdsmtd with -archives)")
	}
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") || strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("archive name %q must be a plain file name", name)
	}
	if err := os.MkdirAll(s.archiveDir, 0o755); err != nil {
		return "", fmt.Errorf("creating archive directory: %w", err)
	}
	return filepath.Join(s.archiveDir, name+".json"), nil
}

// tenantOf identifies the submitting tenant for quotas and accounting:
// the X-API-Key header, or "anonymous". The key is an identity, not a
// secret — hdsmtd runs on trusted networks — so it is stored and listed
// verbatim.
func tenantOf(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejected.With("draining").Inc()
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, errors.New("server is draining; resubmit to its successor"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.rejected.With("body_too_large").Inc()
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("job spec exceeds the %d-byte limit", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	tenant := tenantOf(r)

	// Validate fully before admission: a malformed spec is the client's
	// fault (400) and must not consume rate-limit tokens or quota.
	total, archivePath, body, err := s.resolve(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	tc, _ := telemetry.TraceContextFrom(r.Context())
	j, ctx, err := s.newJob(spec, tenant, total, obslog.RequestID(r.Context()), tc)
	if err != nil {
		s.rejected.With("draining").Inc()
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if archivePath != "" {
		if holder, ok := s.claimArchive(archivePath, j.id); !ok {
			s.dropJob(j)
			httpError(w, http.StatusConflict,
				fmt.Errorf("archive %q is in use by running job %s", spec.Archive, holder))
			return
		}
	}

	// Journal the accept before admission launches anything: the launch
	// goroutine appends "running" and replay refuses events for unknown
	// jobs, so ordering here is what makes the journal replayable. A
	// rejected submission is erased with an eviction event below.
	s.event(j, EventAccepted, spec.Kind, &jobEvent{
		Event:       "accepted",
		Tenant:      j.tenant,
		RequestID:   j.requestID,
		Traceparent: j.trace.Context().Traceparent(),
		Priority:    j.spec.Priority,
		Spec:        &j.spec,
		Created:     rfc3339(j.created),
	})
	launch := func() {
		// The admission span covers acceptance to slot grant — for a
		// queued job, the time spent waiting behind the active set.
		j.trace.Add("", "admission", "server", j.created, time.Now(), nil)
		s.event(j, EventAdmitted, "", nil)
		go s.runJob(ctx, j, body)
	}
	queued := func() { s.event(j, EventQueued, "awaiting an active slot", nil) }
	if err := s.adm.admitOr(tenant, spec.Priority, launch, queued); err != nil {
		if archivePath != "" {
			s.unclaimArchive(archivePath)
		}
		s.dropJob(j)
		s.event(j, EventEvicted, "rejected: "+err.Error(), &jobEvent{Event: "evicted"})
		var ae *admissionError
		if errors.As(err, &ae) {
			s.rejected.With(ae.reason).Inc()
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfterSeconds()))
			httpError(w, http.StatusTooManyRequests, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.jobsTotal.With(spec.Kind).Inc()
	writeJSON(w, http.StatusAccepted, j.status())
}

// newJob registers a pending job with a cancelable context carrying the
// job's execution deadline, if any; total is the initial progress
// denominator (cells for simulation jobs, the budget for search jobs —
// refined once the search knows its effective target). Registration and
// the drain re-check share one critical section so Drain's WaitGroup
// membership is exact.
func (s *Server) newJob(spec JobSpec, tenant string, total int, requestID string, tc telemetry.TraceContext) (*job, context.Context, error) {
	if requestID == "" {
		requestID = obslog.NewRequestID()
	}
	if !tc.Valid() {
		tc = telemetry.NewTraceContext()
	}
	j := &job{
		spec: spec, tenant: tenant, requestID: requestID,
		state: "pending", total: total, created: time.Now(),
	}
	// The execute span's ID is minted before anything runs: engine spans
	// recorded while the job executes parent to it, and settle closes it
	// under the same ID.
	j.trace = telemetry.NewJobTrace(tc, s.traceSpanCap)
	j.execSpan = j.trace.NewSpanID()
	ctx, cancel := s.jobContext(spec, requestID, j)
	j.cancel = cancel
	j.tl = newTimeline(j.created, s.timelineCap)
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cancel()
		return nil, nil, errors.New("server is draining; resubmit to its successor")
	}
	s.wg.Add(1)
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.log = s.jobLogger(j)
	return j, ctx, nil
}

// jobLogger binds a job's correlation fields, so every record about the
// job carries its ID, tenant and request ID without the call site
// repeating them.
func (s *Server) jobLogger(j *job) *obslog.Logger {
	return s.log.With(
		obslog.F("job", j.id),
		obslog.F("tenant", j.tenant),
		obslog.F("request_id", j.requestID),
	)
}

// jobContext builds a job's execution context: canceled by DELETE or
// POST cancel, bounded by the job's deadline when one applies, and
// carrying the job's correlation IDs — request ID, trace identity, and
// the span buffer with the execute span as parent — so engine- and
// search-level records tie back to the originating request.
func (s *Server) jobContext(spec JobSpec, requestID string, j *job) (context.Context, context.CancelFunc) {
	base := obslog.WithRequestID(context.Background(), requestID)
	base = telemetry.WithTraceContext(base, j.trace.Context())
	base = telemetry.WithSpan(base, j.trace, j.execSpan)
	if d := s.deadlineFor(spec); d > 0 {
		return context.WithTimeout(base, d)
	}
	return context.WithCancel(base)
}

// deadlineFor is a job's execution deadline, 0 for none: the smaller of
// the server's per-kind default and the spec's timeout_sec. A timeout_sec
// that specTimeout rejects counts as none; only a journal written before
// submit-time validation can carry one.
func (s *Server) deadlineFor(spec JobSpec) time.Duration {
	d := s.deadlines[spec.Kind]
	if own, _ := specTimeout(spec); own > 0 && (d <= 0 || own < d) {
		d = own
	}
	return d
}

// specTimeout converts a spec's timeout_sec to a duration, 0 when unset.
// A negative value, or one no time.Duration holds (below 1ns or from
// about 9.2e9 s up, where the conversion would overflow), is an error.
func specTimeout(spec JobSpec) (time.Duration, error) {
	if spec.TimeoutSec == 0 {
		return 0, nil
	}
	ns := spec.TimeoutSec * float64(time.Second)
	if !(ns >= 1 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("timeout_sec %g must be 0 (the server default) or from 1e-9 to %.4g seconds",
			spec.TimeoutSec, math.MaxInt64/float64(time.Second))
	}
	return time.Duration(ns), nil
}

// dropJob removes a job that never launched (archive conflict, admission
// rejection): it leaves the table and the drain WaitGroup and releases
// its context resources.
func (s *Server) dropJob(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
	s.wg.Done()
	j.cancel()
}

// runJob is the one execution wrapper every job goes through: it marks
// the job running, executes body with panic containment — a panicking
// job settles as failed and is counted, the daemon survives — and hands
// the outcome to settle, the single settlement point.
func (s *Server) runJob(ctx context.Context, j *job, body func(context.Context, *job) (any, error)) {
	defer s.wg.Done()
	s.jobInflight.Inc()
	s.markRunning(j)
	var result any
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.jobPanics.Inc()
				j.log.Error("job panicked; job failed, daemon unaffected",
					obslog.F("panic", fmt.Sprint(r)))
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		result, err = body(ctx, j)
	}()
	s.settle(ctx, j, result, err)
}

func (s *Server) markRunning(j *job) {
	j.mu.Lock()
	j.state = "running"
	j.started = time.Now()
	j.mu.Unlock()
	s.event(j, EventStarted, "", &jobEvent{Event: "running"})
}

// settle is the single settlement point: state transition, journal
// event, metrics and admission release all happen here, exactly once per
// launched job. Deadline expiry is a failure — the job did not do what
// was asked — while explicit cancellation stays "canceled".
func (s *Server) settle(ctx context.Context, j *job, result any, err error) {
	deadline := errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(ctx.Err(), context.DeadlineExceeded)
	// The job metrics settle before the state does, so a client that sees
	// the job settled also sees it out of flight and in the histogram.
	finished := time.Now()
	s.jobInflight.Dec()
	s.jobSeconds.With(j.spec.Kind).Observe(finished.Sub(j.created).Seconds())
	j.mu.Lock()
	j.finished = finished
	switch {
	case err == nil:
		j.state = "done"
		j.result = result
	case deadline:
		j.state = "failed"
		j.errmsg = fmt.Sprintf("deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		j.state = "canceled"
		j.errmsg = err.Error()
	default:
		j.state = "failed"
		j.errmsg = err.Error()
	}
	ev := jobEvent{Event: j.state, Error: j.errmsg, Finished: rfc3339(j.finished)}
	kind, tenant, state, errmsg := j.spec.Kind, j.tenant, j.state, j.errmsg
	started := j.started
	if j.state == "done" {
		if raw, merr := json.Marshal(j.result); merr == nil {
			ev.Result = raw
		} else {
			j.log.Error("result not journalable", obslog.Err(merr))
		}
	}
	j.mu.Unlock()

	// The execute span closes under its pre-minted ID, so every engine
	// span recorded mid-flight is already parented beneath it.
	j.trace.AddWithID(j.execSpan, "", "execute", "server", started, j.finished,
		map[string]string{"state": state, "kind": kind})
	detail := state
	if errmsg != "" {
		detail = state + ": " + errmsg
	}
	s.event(j, EventSettled, detail, &ev)
	if state == "done" {
		j.log.Info("job settled", obslog.F("state", state), obslog.F("kind", kind))
	} else {
		j.log.Warn("job settled", obslog.F("state", state), obslog.F("kind", kind),
			obslog.F("err", errmsg))
	}
	s.adm.release(tenant)
	j.cancel() // releases the deadline timer
}

// cellsBody executes a run, evaluate or sweep job. All simulation
// fan-out happens inside the shared engine, which bounds total
// concurrency across every job on the server.
func (s *Server) cellsBody(ctx context.Context, j *job, cells []sim.SweepCell) (any, error) {
	opt := j.spec.options()
	switch j.spec.Kind {
	case "run":
		result, err := s.executeRun(ctx, cells[0], j.spec.Mapping, opt)
		if err != nil {
			return nil, err
		}
		j.mu.Lock()
		j.done = 1
		j.mu.Unlock()
		s.event(j, EventProgress, "1/1", nil)
		return result, nil
	case "evaluate":
		result, err := s.runner.Evaluate(ctx, cells[0].Cfg, cells[0].W, opt)
		if err != nil {
			return nil, err
		}
		j.mu.Lock()
		j.done = 1
		j.mu.Unlock()
		s.event(j, EventProgress, "1/1", nil)
		return result, nil
	default: // sweep
		ms, err := s.runner.EvaluateAll(ctx, cells, opt, func(done int) {
			j.mu.Lock()
			j.done = done
			total := j.total
			j.mu.Unlock()
			s.event(j, EventProgress, fmt.Sprintf("%d/%d", done, total), nil)
		})
		if err != nil {
			return nil, err
		}
		return SweepResult{Measurements: ms}, nil
	}
}

// claimArchive binds an archive path to a job; it fails when another
// running job already holds it.
func (s *Server) claimArchive(path, jobID string) (holder string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if holder, busy := s.archives[path]; busy {
		return holder, false
	}
	s.archives[path] = jobID
	return jobID, true
}

func (s *Server) unclaimArchive(path string) {
	s.mu.Lock()
	delete(s.archives, path)
	s.mu.Unlock()
}

// searchBody executes a search or pareto job on the server's shared
// runner: every point evaluation goes through the one engine, so
// overlapping searches (and sweeps) share their simulations.
func (s *Server) searchBody(ctx context.Context, j *job, sp search.Space, st search.Strategy, opts search.Options) (any, error) {
	// The search shares the server's registry, so a /metrics scrape sees
	// its per-strategy progress next to the engine's cache counters.
	opts.Telemetry = s.reg
	if opts.ArchivePath != "" {
		defer s.unclaimArchive(opts.ArchivePath)
	}
	opts.Progress = func(done, total int) {
		j.mu.Lock()
		j.done = done
		j.total = total // the driver's effective target: min(budget, space)
		j.mu.Unlock()
		s.event(j, EventProgress, fmt.Sprintf("%d/%d", done, total), nil)
	}
	opts.FrontProgress = func(front []search.TrajectoryPoint, hv float64) {
		j.mu.Lock()
		j.front = front
		j.hv = hv
		j.mu.Unlock()
		s.event(j, EventFrontUpdate, fmt.Sprintf("size=%d hv=%.6g", len(front), hv), nil)
	}
	return search.NewDriver(s.runner).Search(ctx, sp, st, opts)
}

func (s *Server) executeRun(ctx context.Context, c sim.SweepCell, m mapping.Mapping, opt sim.Options) (any, error) {
	if m == nil {
		dm, err := sim.DefaultMapping(c.Cfg, c.W)
		if err != nil {
			return nil, err
		}
		m = dm
	}
	return s.runner.Run(ctx, c.Cfg, c.W, m, opt)
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleStatus serves a job's status snapshot — or, when the client
// accepts text/event-stream, switches to live SSE of the job's timeline,
// replacing the poll loop the client would otherwise run.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if wantsSSE(r) {
		s.streamEvents(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleResult has exactly three outcomes, all stable: 404 for an id the
// server never accepted (or has evicted), 200 with the payload for a
// successful job, and 409 for every other state — still pending/running,
// failed, canceled or interrupted — with the state named in the error so
// clients can distinguish "come back later" from "will never succeed".
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	state, result, errmsg := j.state, j.result, j.errmsg
	j.mu.Unlock()
	switch state {
	case "done":
		writeJSON(w, http.StatusOK, result)
	case "failed", "canceled", "interrupted":
		httpError(w, http.StatusConflict, fmt.Errorf("job %s: %s", state, errmsg))
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("job still %s", state))
	}
}

// handleCancelPost (POST /jobs/{id}/cancel) requests cancellation of a
// pending or running job: 202 with the job's status when the request is
// taken, 409 when the job has already settled (cancel would be a lie),
// 404 for unknown ids. Idempotent for unsettled jobs.
func (s *Server) handleCancelPost(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if settledState(state) {
		httpError(w, http.StatusConflict, fmt.Errorf("job already settled (%s)", state))
		return
	}
	s.event(j, EventCanceled, "cancellation requested", nil)
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleCancel (DELETE) cancels a pending or running job; a job already
// settled is evicted instead — removed from the table and, durably, from
// the journal's replay — so long-lived daemons have a way to release
// finished jobs' result payloads.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	settled := settledState(j.state)
	j.mu.Unlock()
	if settled {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.event(j, EventEvicted, "", &jobEvent{Event: "evicted"})
	} else {
		s.event(j, EventCanceled, "cancellation requested", nil)
		j.cancel()
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
