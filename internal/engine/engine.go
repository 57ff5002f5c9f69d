// Package engine is the batch-simulation engine behind every sweep in this
// repository: a bounded worker pool that executes content-addressed
// simulation jobs asynchronously, memoizes their results in a sharded
// in-memory store, and journals completions to a JSONL checkpoint so an
// interrupted sweep — or a new process pointed at the same file — resumes
// without redoing finished work.
//
// The paper's evaluation (BEST/HEUR/WORST oracles over every mapping ×
// microarchitecture × workload) is embarrassingly parallel and heavily
// redundant — the same (config, workload, mapping, budget) cell recurs
// across figures, ablations and explorations. The engine exploits both
// properties: fan-out is bounded by a fixed worker pool, and redundancy is
// eliminated by a single content-addressed store that every caller shares.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdsmt/internal/core"
	"hdsmt/internal/faultinject"
	"hdsmt/internal/jsonl"
	"hdsmt/internal/obslog"
	"hdsmt/internal/telemetry"
)

// Runner executes one simulation request. It must be deterministic: the
// engine serves repeated requests from cache, so a nondeterministic runner
// would make results depend on cache state.
type Runner func(ctx context.Context, req Request) (core.Results, error)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrently executing simulations; 0 means
	// GOMAXPROCS.
	Workers int
	// Shards is the number of memoization-store shards (lock striping for
	// the in-memory cache and in-flight index); 0 picks a default.
	Shards int
	// QueueDepth bounds the pending-task queue; a full queue applies
	// backpressure to Submit. 0 means a generous default.
	QueueDepth int
	// JournalPath, when non-empty, enables the JSONL checkpoint journal:
	// every completed job appends one line, and a new engine pointed at
	// the same path preloads all completed results, resuming the sweep.
	JournalPath string
	// Telemetry, when non-nil, is the metrics registry the engine
	// registers its instruments in (hit/miss/executed counters, queue- and
	// shard-depth gauges, the job-latency histogram, per-worker busy
	// time). Nil means a private registry: the counters still back Stats,
	// they are just not exported anywhere. Counters carry only
	// deterministic counts; wall-clock quantities (latency, busy time)
	// exist solely as telemetry series, never in results.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records per-job lifecycle spans — queue wait,
	// simulate, journal append, plus memo-hit/coalesce
	// instants — for Chrome trace_event export. Each span is timed once
	// and the same start/end also goes to the submitting request's
	// JobTrace. Nil (the default) records nothing and, with no JobTrace
	// bound, costs two pointer comparisons per site.
	Tracer *telemetry.Tracer
	// Log receives the engine's structured records (journal healing and
	// failed appends, runner panics), each carrying the
	// request/correlation ID of the submission that scheduled the task.
	// Nil means the process-default logger.
	Log *obslog.Logger
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return 8
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 1024
}

// Stats counts engine activity since construction. A warm re-run of a
// sweep shows Hits advancing while Executed stays put — the memoization
// guarantee the tests pin down.
type Stats struct {
	// Submitted counts Submit calls.
	Submitted uint64
	// Hits counts submissions served from the in-memory store (including
	// results preloaded from the journal).
	Hits uint64
	// Coalesced counts submissions attached to an identical in-flight job.
	Coalesced uint64
	// Executed counts simulations actually run.
	Executed uint64
	// Errors counts failed executions.
	Errors uint64
	// Restored counts journal entries preloaded at construction.
	Restored uint64
	// Panics counts runner panics recovered by the worker: each fails its
	// one job (counted under Errors too) instead of taking the process
	// down.
	Panics uint64
	// JournalTruncated counts journal lines skipped at load because they
	// would not parse — a crash-truncated final line or corruption. The
	// replay heals the file as affected jobs re-run and re-append.
	JournalTruncated uint64
}

// task is one scheduled execution of a request. Coalesced submissions
// share the task and wait on its done channel.
type task struct {
	req  Request
	key  string
	done chan struct{}
	res  core.Results
	err  error
	// engineDone unblocks waiters if the engine closes before the task
	// ever executes (a Submit can race Close and enqueue into a queue no
	// worker will drain again). Nil for pre-resolved cache-hit tickets.
	engineDone <-chan struct{}
	// waiters holds every submitter's context, guarded by the shard
	// mutex. The task is skipped only when all of them are canceled, so
	// one caller canceling its sweep cannot poison a coalesced job that
	// another caller still wants.
	waiters []context.Context
	// created stamps the enqueue time for the job-latency histogram and
	// the queue-wait trace span. Telemetry only — never part of results.
	created time.Time
	// origin is the correlation (request) ID of the submission that
	// created the task, captured from the submit context so engine log
	// lines tie back to the HTTP request that caused the work. Logging
	// only — never part of the cache key or results.
	origin string
	// jt/pspan are the request-scoped span buffer and parent span bound to
	// the submit context (telemetry.WithSpan): the engine records its
	// queue-wait/simulate/journal-append spans there so
	// GET /jobs/{id}/trace serves a stitched tree. Telemetry only — never
	// part of the cache key or results.
	jt    *telemetry.JobTrace
	pspan string
	// args labels the task's trace events and, once its result is
	// memoized, every hit's; nil when no trace sink was on at submit.
	// Telemetry only.
	args map[string]string
}

// resolved is the done channel of every memo-hit ticket: it is closed
// once, so a hit makes no channel.
var resolved = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (t *task) resolve(res core.Results, err error) {
	t.res, t.err = res, err
	close(t.done)
}

// shard owns a segment of the memoization store and its in-flight index
// (lock striping, so concurrent submissions rarely contend). Requests
// route to shards by key hash, so two submissions of the same job always
// meet in the same shard and coalesce. Execution itself uses one shared
// bounded queue: any free worker takes the next task, whatever its shard.
type shard struct {
	mu       sync.Mutex
	memo     map[string]memoEntry
	inflight map[string]*task
}

// memoEntry is one memoized result with the trace labels of its request:
// the executed task's, or — for a task submitted untraced and for a result
// preloaded from the journal, which holds no request — those built at its
// first traced hit. Traced hits share that one map instead of building
// one each.
type memoEntry struct {
	res  core.Results
	args map[string]string
}

// Engine is the sharded batch-simulation engine. Create one with New;
// Close it when done.
type Engine struct {
	runner  Runner
	opts    Options
	shards  []*shard
	queue   chan *task
	journal *jsonl.Writer

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closed atomic.Bool

	tel    *instruments
	tracer *telemetry.Tracer
	log    *obslog.Logger
}

// New builds an engine executing requests with runner under opts. If a
// journal path is given and the file exists, previously completed results
// are preloaded into the in-memory store (the resume path).
func New(runner Runner, opts Options) (*Engine, error) {
	if runner == nil {
		return nil, fmt.Errorf("engine: nil runner")
	}
	e := &Engine{runner: runner, opts: opts, tracer: opts.Tracer, log: opts.Log}
	if e.log == nil {
		e.log = obslog.Default()
	}
	e.log = e.log.With(obslog.F("component", "engine"))
	e.ctx, e.cancel = context.WithCancel(context.Background())
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e.tel = newInstruments(reg)

	e.queue = make(chan *task, opts.queueDepth())
	e.shards = make([]*shard, opts.shards())
	for i := range e.shards {
		e.shards[i] = &shard{
			memo:     map[string]memoEntry{},
			inflight: map[string]*task{},
		}
	}

	if opts.JournalPath != "" {
		j, torn, err := jsonl.Open(opts.JournalPath, faultinject.PointJournalAppend, func(line []byte) error {
			ent, err := decodeEntry(line)
			if err != nil {
				return err
			}
			e.shardFor(ent.Key).memo[ent.Key] = memoEntry{res: ent.Result}
			e.tel.restored.Inc()
			return nil
		})
		if err != nil {
			return nil, err
		}
		e.journal = j
		if torn > 0 {
			e.tel.journalTorn.Add(float64(torn))
			e.log.Warn("journal lines skipped; affected jobs re-run",
				obslog.F("journal", opts.JournalPath), obslog.F("skipped", torn))
		}
	}
	e.registerGauges(reg)
	e.tracer.Register(reg)

	e.tracer.SetThreadName(0, "submit")
	for w := 0; w < opts.workers(); w++ {
		if e.tracer.Enabled() {
			e.tracer.SetThreadName(w+1, fmt.Sprintf("worker-%d", w))
		}
		e.wg.Add(1)
		go e.work(w)
	}
	return e, nil
}

// Close stops the workers and waits for in-flight simulations to settle.
// Pending queued tasks resolve with a cancellation error.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.cancel()
	e.wg.Wait()
	// Drain the queue so no waiter blocks forever on an unprocessed task.
	for {
		select {
		case t := <-e.queue:
			e.finish(e.shardFor(t.key), t, core.Results{}, context.Canceled)
			continue
		default:
		}
		break
	}
	e.journal.Close()
}

// Accepting reports whether the engine still takes submissions — false
// once Close has begun. Readiness probes use it to flip /readyz before
// in-flight work finishes draining.
func (e *Engine) Accepting() bool { return !e.closed.Load() }

// Stats returns a snapshot of the engine's counters. The counters are the
// telemetry series themselves (exact for any realistic count), so Stats
// and a /metrics scrape can never disagree.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:        uint64(e.tel.submitted.Value()),
		Hits:             uint64(e.tel.memoHits.Value()),
		Coalesced:        uint64(e.tel.coalesced.Value()),
		Executed:         uint64(e.tel.executed.Value()),
		Errors:           uint64(e.tel.errors.Value()),
		Restored:         uint64(e.tel.restored.Value()),
		Panics:           uint64(e.tel.panics.Value()),
		JournalTruncated: uint64(e.tel.journalTorn.Value()),
	}
}

func (e *Engine) shardFor(key string) *shard {
	// FNV-1a, inline: hashing the string in place copies nothing.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return e.shards[h%uint32(len(e.shards))]
}

// Ticket is a handle on a submitted job. Wait blocks until the job
// resolves (possibly instantly, on a cache hit) or ctx is done.
type Ticket struct {
	t *task
	// hit marks a submission served from the in-memory store at submit
	// time, letting callers attribute cache savings to their own
	// submissions without diffing the engine's global counters (which
	// concurrent callers would corrupt).
	hit bool
}

// CacheHit reports whether this submission resolved instantly from the
// in-memory memoization store.
func (tk *Ticket) CacheHit() bool { return tk.hit }

// Wait returns the job's result.
func (tk *Ticket) Wait(ctx context.Context) (core.Results, error) {
	select {
	case <-tk.t.done:
		return tk.t.res, tk.t.err
	default:
	}
	select {
	case <-tk.t.done:
		return tk.t.res, tk.t.err
	case <-ctx.Done():
		return core.Results{}, ctx.Err()
	case <-tk.t.engineDone:
		// The engine closed under the task; it may still have resolved
		// (the Close drain) a moment ago.
		select {
		case <-tk.t.done:
			return tk.t.res, tk.t.err
		default:
			return core.Results{}, fmt.Errorf("engine: closed before %s completed", tk.t.req)
		}
	}
}

// Submit schedules req and returns a ticket for its result. A memoized
// result resolves the ticket immediately; a request identical to one
// already queued or running shares its execution. Submit blocks only when
// the task queue is full (bounded backpressure) and returns
// ctx's error if ctx is done first.
func (e *Engine) Submit(ctx context.Context, req Request) (*Ticket, error) {
	return e.SubmitKeyed(ctx, req, req.Key())
}

// SubmitKeyed is Submit for a caller that already holds req's key, such
// as a sweep planner that keys each request once and submits it many
// times. key must equal req.Key(): the engine stores, journals and looks
// results up under it.
func (e *Engine) SubmitKeyed(ctx context.Context, req Request, key string) (*Ticket, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("engine: submit on closed engine")
	}
	e.tel.submitted.Inc()
	sh := e.shardFor(key)

	jt, pspan := telemetry.SpanFrom(ctx)
	sh.mu.Lock()
	if ent, ok := sh.memo[key]; ok {
		if ent.args == nil && e.traced(jt) {
			ent.args = traceArgs(req, key)
			sh.memo[key] = ent
		}
		sh.mu.Unlock()
		e.tel.memoHits.Inc()
		e.instant(jt, pspan, "memo-hit", ent.args)
		return &Ticket{t: &task{done: resolved, res: ent.res}, hit: true}, nil
	}
	if t, ok := sh.inflight[key]; ok {
		t.waiters = append(t.waiters, ctx)
		sh.mu.Unlock()
		e.tel.coalesced.Inc()
		// The execution spans land in the creator's trace; this submitter's
		// trace records that its work was coalesced onto it.
		if e.traced(jt) {
			e.instant(jt, pspan, "coalesce", traceArgs(req, key))
		}
		return &Ticket{t: t}, nil
	}
	t := &task{
		req:        req,
		key:        key,
		done:       make(chan struct{}),
		engineDone: e.ctx.Done(),
		waiters:    []context.Context{ctx},
		created:    time.Now(),
		origin:     obslog.RequestID(ctx),
		jt:         jt,
		pspan:      pspan,
	}
	if e.traced(jt) {
		t.args = traceArgs(req, key)
	}
	sh.inflight[key] = t
	sh.mu.Unlock()

	select {
	case e.queue <- t:
		return &Ticket{t: t}, nil
	case <-ctx.Done():
		e.abandon(sh, t)
		return nil, ctx.Err()
	case <-e.ctx.Done():
		e.abandon(sh, t)
		return nil, fmt.Errorf("engine: closed while submitting")
	}
}

// abandon handles a task whose enqueue failed after it was published to
// the in-flight index. A coalesced waiter may have attached meanwhile; if
// any is still live, the enqueue is completed on its behalf — blocking if
// the queue is full, since a worker frees a slot within one task — so a
// live waiter is never handed another caller's cancellation. Only a task
// nobody wants (or an engine shutting down) is withdrawn and resolved
// canceled; the inflight delete and the liveness decision share one lock
// hold, so a new waiter either attaches before (and keeps the task alive)
// or finds no entry and starts a fresh task.
func (e *Engine) abandon(sh *shard, t *task) {
	if e.withdrawIfUnwanted(sh, t) {
		return
	}
	select {
	case e.queue <- t:
	case <-e.ctx.Done():
		e.finish(sh, t, core.Results{}, context.Canceled)
	}
}

// withdrawIfUnwanted resolves a not-yet-executed task with a cancellation
// when every waiter's context is already canceled, reporting whether it
// did. The liveness decision and the in-flight withdrawal share one lock
// hold — the invariant that makes coalescing onto a dying task safe: a
// live waiter either attaches before the withdrawal (and is seen here,
// keeping the task alive) or finds no in-flight entry and starts fresh.
func (e *Engine) withdrawIfUnwanted(sh *shard, t *task) bool {
	sh.mu.Lock()
	for _, ctx := range t.waiters {
		if ctx.Err() == nil {
			sh.mu.Unlock()
			return false
		}
	}
	delete(sh.inflight, t.key)
	sh.mu.Unlock()
	t.resolve(core.Results{}, context.Canceled)
	return true
}

// RunBatch submits every request and waits for all of them, returning
// results in input order — deterministic regardless of worker count or
// scheduling. The first error encountered (in input order) is returned.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) ([]core.Results, error) {
	tickets := make([]*Ticket, len(reqs))
	var firstErr error
	for i, req := range reqs {
		tk, err := e.Submit(ctx, req)
		if err != nil {
			firstErr = fmt.Errorf("engine: submitting %s: %w", req, err)
			break
		}
		tickets[i] = tk
	}
	out := make([]core.Results, len(reqs))
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		res, err := tk.Wait(ctx)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: %s: %w", reqs[i], err)
		}
		out[i] = res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// work is one worker's loop on the shared queue. w is the worker index,
// used for the busy-time counter and as the trace track (tid w+1; tid 0
// is the submit side).
func (e *Engine) work(w int) {
	defer e.wg.Done()
	busy := e.tel.workerBusy.With(fmt.Sprintf("%d", w))
	for {
		select {
		case t := <-e.queue:
			start := time.Now()
			e.execute(e.shardFor(t.key), t, w)
			busy.Add(time.Since(start).Seconds())
		case <-e.ctx.Done():
			return
		}
	}
}

// traceArgs labels a job's trace events. Trace sinks only read the map,
// so one map serves every event of a request: a memo entry's serves all
// its hits.
func traceArgs(req Request, key string) map[string]string {
	return map[string]string{
		"config":   req.Cfg.Name,
		"workload": req.Workload.Name,
		"key":      key[:12],
	}
}

// span records one engine span, measured once from start to now, in
// both trace sinks: the process Tracer on worker track tid and the
// submitting request's JobTrace. labeled attaches traceArgs. Both sinks
// off costs two pointer comparisons.
func (e *Engine) span(t *task, tid int, name string, start time.Time, labeled bool) {
	if !e.traced(t.jt) {
		return
	}
	end := time.Now()
	var args map[string]string
	if labeled {
		args = t.args
	}
	e.tracer.Complete(tid, name, "engine", start, end, args)
	t.jt.Add(t.pspan, name, "engine", start, end, args)
}

// traced reports whether a trace sink records a submission bound to jt:
// the process Tracer or the submitter's JobTrace.
func (e *Engine) traced(jt *telemetry.JobTrace) bool {
	return e.tracer.Enabled() || jt != nil
}

// instant records a submit-side point event (memo hit, coalesce join) at
// one timestamp in both trace sinks: an instant on the Tracer's submit
// track and a zero-duration span in the submitter's JobTrace.
func (e *Engine) instant(jt *telemetry.JobTrace, pspan, name string, args map[string]string) {
	if !e.traced(jt) {
		return
	}
	now := time.Now()
	e.tracer.Instant(0, name, "engine", now, args)
	jt.Add(pspan, name, "engine", now, now, args)
}

// execute runs one task through the runner; successes are journaled,
// stored and handed to every waiter. The simulation itself runs under the
// engine's context — a submitter's cancellation skips the task only when
// every coalesced waiter has canceled.
func (e *Engine) execute(sh *shard, t *task, w int) {
	if e.withdrawIfUnwanted(sh, t) {
		return
	}
	tid := w + 1
	e.span(t, tid, "queue-wait", t.created, false)
	simStart := time.Now()
	res, err := e.simulate(t)
	e.span(t, tid, "simulate", simStart, true)
	e.tel.executed.Inc()
	if err != nil {
		e.tel.errors.Inc()
		e.finish(sh, t, core.Results{}, err)
		return
	}
	if e.journal != nil {
		jstart := time.Now()
		if err := e.journal.Append(func(b []byte) ([]byte, error) { return appendEntry(b, t.key, res) }); err != nil {
			// The job still succeeds; only its checkpoint is lost, and a
			// resumed sweep re-runs it.
			e.log.Warn("journal append failed; result not checkpointed",
				obslog.F("key", t.key[:12]), obslog.F("request_id", t.origin), obslog.Err(err))
		}
		e.span(t, tid, "journal-append", jstart, false)
	}
	e.finish(sh, t, res, nil)
	e.tel.jobSeconds.Observe(time.Since(t.created).Seconds())
}

// simulate invokes the runner on one task with panic containment: a
// panicking simulation (a core bug on a pathological configuration, or an
// injected chaos fault) fails that one job — counted, logged, reported to
// its waiters — instead of unwinding the worker and killing the process.
func (e *Engine) simulate(t *task) (res core.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.tel.panics.Inc()
			e.log.Error("runner panicked; job failed, worker recovered",
				obslog.F("req", t.req), obslog.F("request_id", t.origin),
				obslog.F("panic", fmt.Sprint(r)))
			err = fmt.Errorf("engine: runner panic on %s: %v", t.req, r)
		}
	}()
	if err := faultinject.Hit(faultinject.PointSimulate); err != nil {
		return core.Results{}, err
	}
	return e.runner(e.ctx, t.req)
}

// finish publishes a task's outcome: successful results enter the memo
// store with their trace labels, the in-flight entry is cleared, and
// waiters are released.
func (e *Engine) finish(sh *shard, t *task, res core.Results, err error) {
	sh.mu.Lock()
	if err == nil {
		sh.memo[t.key] = memoEntry{res: res, args: t.args}
	}
	delete(sh.inflight, t.key)
	sh.mu.Unlock()
	t.resolve(res, err)
}
