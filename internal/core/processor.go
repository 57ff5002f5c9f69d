// Package core assembles and drives the hdSMT processor: the shared fetch
// engine with its policy, the shared branch predictor, register file and
// memory hierarchy, and the per-pipeline clustered back ends. It implements
// the cycle loop of a trace-driven, 8-stage, out-of-order SMT in the style
// of SMTSIM with the paper's multipipeline extensions.
package core

import (
	"fmt"

	"hdsmt/internal/branch"
	"hdsmt/internal/cache"
	"hdsmt/internal/config"
	"hdsmt/internal/fetch"
	"hdsmt/internal/isa"
	"hdsmt/internal/pipeline"
	"hdsmt/internal/regfile"
	"hdsmt/internal/trace"
)

// frontLatency is the fetch-to-issue distance in cycles implied by the
// paper's 8-stage pipeline (fetch, decode, rename, dispatch, issue wake-up):
// an instruction fetched at cycle c may issue no earlier than c+frontLatency.
// Register-file reads add RegAccessLatency-1 on top (paper §4: hdSMT pays 2
// cycles, the monolithic baseline 1).
const frontLatency = 5

// Processor is one configured hdSMT (or monolithic SMT) machine instance.
type Processor struct {
	cfg    config.Microarch
	policy fetch.Policy
	// flushMech enables the FLUSH mechanism (baseline configuration).
	flushMech bool

	hier *cache.Hierarchy
	// ownHier is the default hierarchy the processor built for itself;
	// it stays here for Renew to reuse even when WithHierarchy installed
	// another one as hier.
	ownHier *cache.Hierarchy
	pred    *branch.Predictor
	btb     *branch.BTB
	ras     []*branch.RAS
	rf      *regfile.File
	pipes   []*pipeline.Backend

	threads []*thread

	cycle uint64
	// work counts the stage loop's host-side work (see Work).
	work Work
	// horizon, when ahead of the clock, is a cycle the driving loop tests
	// the clock against (a sampled window's cycle floor). fastForward never
	// jumps past it, so the loop stops at the same cycle on both paths.
	horizon uint64

	// The three event sources of the wakeup scheduler, each a timing wheel
	// (see eventRing) sized to the farthest distance its events are
	// scheduled ahead: completions reach up to ringSize-1 cycles (New
	// bounds the worst completion latency by it), FLUSH detections exactly
	// the hierarchy's
	// L2-miss detect latency, and issueTimers — dispatched uops waiting out
	// the front-end depth plus register-read delay until their IssueAt
	// cycle — at most frontLatency+RegAccessLatency-1. The two short rings
	// are fixed at construction, so they take tens of slots, not ringSize.
	completions eventRing
	flushAt     eventRing
	issueTimers eventRing

	// waiters holds, per physical register, the dispatched consumers still
	// waiting for its value. writebackStage drains a register's list when
	// the value is produced, waking each consumer exactly once — the
	// event-driven replacement for polling every queue entry per cycle.
	waiters [][]waiter

	// dispatchSeq stamps uops in dispatch order; issue-queue ready lists
	// sort by it so wakeup-order arrivals still issue oldest-first.
	dispatchSeq uint64

	// Occupancy counters for O(1) stage skipping on the optimized path:
	// readyCount tracks entries across all issue-queue ready lists,
	// doneCount tracks completed-but-uncommitted uops. When either is
	// zero the corresponding stage provably has no work this cycle.
	readyCount int
	doneCount  int

	// anyFinished is set at the commit that makes a thread reach its
	// target, so the run loop avoids a per-step scan of every thread.
	anyFinished bool

	// reference selects the reference stepper (reference.go) in place of
	// step; only stepper reads it. Simulated behaviour is bit-identical to
	// the optimized path; tests assert it.
	reference bool

	// freeUOps recycles retired/squashed uop records (never ones that a
	// pending event ring entry may still reference). uopPool is the
	// contiguous array the pool is pre-warmed from.
	freeUOps []*pipeline.UOp
	uopPool  []pipeline.UOp

	// commitHook, when set, observes every architecturally retired
	// instruction in commit order (used by validation tests).
	commitHook func(thread int, in isa.Instruction)

	// Scratch reused across cycles to avoid per-cycle allocation.
	orderScratch []int
	stateScratch []fetch.ThreadState
	pollScratch  []int
	entryScratch [3][]*pipeline.UOp // the reference selection's queue entries, by isa.Queue

	// Warm-up: instructions each thread retires before measurement starts.
	warmup       uint64
	startCycle   uint64
	baseStats    Stats
	baseThread   []ThreadStats
	baseActivity Activity

	// Sampled-execution scratch (see sampled.go), reused across sampling
	// units so the interval loop stays allocation-free.
	sampleScratch     []uint64
	sampleWarmScratch []uint64
	samplePipeScratch []PipeActivity
	sampleCommitted   []uint64
	sampleCtl         []trace.ControlFunc
	sampleUnit        uint64

	stats Stats
	// activity holds the per-unit access counters behind the energy model
	// (see activity.go). Incremented only in code shared by both stepping
	// paths, so optimized and reference runs count identically.
	activity Activity
}

// Stats aggregates whole-processor counters over a run.
type Stats struct {
	Cycles          uint64
	TotalCommitted  uint64
	TotalFetched    uint64
	TotalSquashed   uint64
	TotalDispatched uint64
	TotalIssued     uint64
}

// GlobalStats returns the processor-wide counters.
func (p *Processor) GlobalStats() Stats { return p.stats }

// Option customizes processor construction.
type Option func(*Processor)

// WithWarmup makes Run retire n instructions per thread before measurement
// begins. Microarchitectural state (caches, predictor, BTB) warms during
// this phase; cycles and statistics reported in Results cover only the
// measured phase. Scaled-down runs need this: at full 300M-instruction
// scale cold-cache effects amortize away, at 10^5 scale they dominate
// unless excluded.
func WithWarmup(n uint64) Option {
	return func(pr *Processor) { pr.warmup = n }
}

// WithCommitHook registers an observer called for every architecturally
// retired instruction, in commit order. Intended for validation: the
// committed sequence of each thread must equal its trace prefix regardless
// of squashes, flushes and replays.
func WithCommitHook(fn func(thread int, in isa.Instruction)) Option {
	return func(pr *Processor) { pr.commitHook = fn }
}

// WithHierarchy overrides the memory subsystem (default: the paper's
// Table 1 hierarchy). Latency parameters are validated against the event
// ring at construction.
func WithHierarchy(h *cache.Hierarchy) Option {
	return func(pr *Processor) { pr.hier = h }
}

// WithReferenceStepping selects the naive reference stepper
// (stepReference, in reference.go): issue polls every issue-queue entry
// every cycle, commit peeks every ROB head, and idle cycles are stepped
// one by one, as the simulator did before the event-driven wakeup
// scheduler. Run and the sampled loops pick the stepper once; the
// production stages of cycle.go never test the mode. The simulated
// machine behaves bit-identically under both steppers (asserted by the
// equivalence tests); the reference path exists as the oracle for those
// tests and for before/after performance measurement.
func WithReferenceStepping() Option {
	return func(pr *Processor) { pr.reference = true }
}

// WithPolicy overrides the fetch policy (the default follows the paper:
// FLUSH for the monolithic baseline, L1MCOUNT otherwise). Overriding the
// policy also disables the FLUSH mechanism unless the policy is fetch.Flush.
func WithPolicy(p fetch.Policy) Option {
	return func(pr *Processor) {
		pr.policy = p
		_, isFlush := p.(fetch.Flush)
		pr.flushMech = isFlush
	}
}

// New builds a processor for cfg running the given threads, with mapping[i]
// naming the pipeline thread i is assigned to. The mapping must respect
// pipeline context capacities (see package mapping for policies that
// produce valid mappings).
func New(cfg config.Microarch, specs []ThreadSpec, mapping []int, opts ...Option) (*Processor, error) {
	return Renew(nil, cfg, specs, mapping, opts...)
}

// Renew builds the processor New(cfg, specs, mapping, opts...) builds,
// reusing the storage of old, a processor whose run is over, wherever its
// shape matches: the cache hierarchy and TLBs, predictor, BTB and return
// stacks, register file, back ends, ROBs, replay buffers, uop pool, waiter
// lists and event rings. Each reused component is reset to exactly the
// state New builds it in, so the processor simulates as a new one would,
// and nothing a Results of old's run holds is reused. Renew takes old over
// whether or not it succeeds: the caller must not use old, or storage it
// exposed (its Hierarchy, its Predictor), again. A nil old reuses nothing.
func Renew(old *Processor, cfg config.Microarch, specs []ThreadSpec, mapping []int, opts ...Option) (*Processor, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no threads")
	}
	if len(mapping) != len(specs) {
		return nil, fmt.Errorf("core: mapping covers %d threads, workload has %d", len(mapping), len(specs))
	}
	cfg = cfg.ForThreads(len(specs))
	if cfg.TotalContexts() < len(specs) {
		return nil, fmt.Errorf("core: %s has %d contexts for %d threads",
			cfg.Name, cfg.TotalContexts(), len(specs))
	}
	for i, spec := range specs {
		if spec.Program == nil {
			return nil, fmt.Errorf("core: thread %d has no program", i)
		}
	}

	p := old
	if p == nil {
		p = new(Processor)
	}
	prev := *p
	*p = Processor{
		cfg:          cfg,
		policy:       fetch.ForConfig(cfg.Monolithic),
		flushMech:    cfg.Monolithic,
		ownHier:      renewHierarchy(prev.ownHier),
		pred:         renewPredictor(prev.pred, len(specs)),
		btb:          renewBTB(prev.btb),
		rf:           renewRegFile(prev.rf, cfg.Params.RenameRegs),
		pipes:        prev.pipes[:0],
		threads:      prev.threads[:0],
		ras:          prev.ras[:0],
		orderScratch: prev.orderScratch[:0],
		stateScratch: prev.stateScratch[:0],
		pollScratch:  prev.pollScratch[:0],
		entryScratch: prev.entryScratch,
		baseThread:   prev.baseThread[:0],
	}
	p.hier = p.ownHier
	maxFetchBuf := 0
	for i, m := range cfg.Pipelines {
		var b *pipeline.Backend
		if i < len(prev.pipes) {
			b = prev.pipes[i]
		}
		b = pipeline.RenewBackend(b, i, m, cfg.Params.FetchWidth)
		p.pipes = append(p.pipes, b)
		maxFetchBuf = max(maxFetchBuf, b.FetchBuf.Cap())
	}
	p.activity.Pipes = prev.activity.Pipes[:0]
	p.activity.Pipes = append(p.activity.Pipes, make([]PipeActivity, len(p.pipes))...)
	// A thread's replay buffer peaks at its uncommitted correct-path
	// instructions (its ROB plus the largest fetch buffer it may be mapped
	// to) plus the committed prefix awaiting a trim batch.
	replayCap := cfg.Params.ROBPerThread + maxFetchBuf + trimBatch
	for i, spec := range specs {
		var (
			t   *thread
			ras *branch.RAS
		)
		if i < len(prev.threads) {
			t, ras = prev.threads[i], prev.ras[i]
			ras.Reset()
		} else {
			t, ras = new(thread), branch.NewRAS()
		}
		t.reset(i, spec, cfg.Params.ROBPerThread, replayCap)
		p.threads = append(p.threads, t)
		p.ras = append(p.ras, ras)
	}
	for i, pipe := range mapping {
		if pipe < 0 || pipe >= len(p.pipes) {
			return nil, fmt.Errorf("core: thread %d mapped to pipeline %d of %d", i, pipe, len(p.pipes))
		}
		if !p.pipes[pipe].HasContextFor() {
			return nil, fmt.Errorf("core: pipeline %d (%s) context overflow",
				pipe, p.pipes[pipe].Model.Name)
		}
		p.pipes[pipe].AssignThread(i)
		p.threads[i].pipe = pipe
	}
	for _, o := range opts {
		o(p)
	}

	// The event rings must out-span every schedulable distance, or slots
	// would silently wrap onto earlier cycles. The FLUSH-detect and
	// issue-timer distances are fixed by construction parameters, and the
	// completion distance is bounded by them and the threads' programs, so
	// validate all three here instead of wrapping (or, for completions,
	// panicking in issueOne) at run time; the two short rings are sized to
	// their reach below. Any reach below ringSize is accepted.
	flushReach := p.hier.L2DetectLatency()
	if flushReach <= 0 || flushReach >= ringSize {
		return nil, fmt.Errorf("core: FLUSH L2-miss detect latency %d outside event ring (0, %d)", flushReach, ringSize)
	}
	timerReach := frontLatency + cfg.Params.RegAccessLatency - 1
	if timerReach <= 0 || timerReach >= ringSize {
		return nil, fmt.Errorf("core: front-end issue delay %d outside event ring (0, %d)", timerReach, ringSize)
	}
	if class, lat := p.worstCompletion(specs); lat >= ringSize {
		return nil, fmt.Errorf("core: %v completion latency up to %d (register read included) outside event ring (0, %d)",
			class, lat, ringSize)
	}

	// Waiter lists start with a few slots each, carved from one backing
	// array; reused lists are emptied, keeping whatever they grew to.
	if n := p.rf.Size(); len(prev.waiters) == n {
		p.waiters = prev.waiters
		for i := range p.waiters {
			p.waiters[i] = p.waiters[i][:0]
		}
	} else {
		p.waiters = make([][]waiter, n)
		backing := make([]waiter, 4*n)
		for i := range p.waiters {
			p.waiters[i] = backing[i*4 : i*4 : (i+1)*4]
		}
	}

	// Pre-warm the uop pool from one contiguous backing array sized to the
	// machine's peak in-flight population (every ROB slot plus every fetch
	// buffer slot, with slack for squashed records awaiting their pending
	// completion event). Contiguity keeps the hot commit/issue pointer
	// chases within a compact region; allocUOp falls back to the heap in
	// the rare case the pool runs dry.
	poolSize := len(p.threads)*cfg.Params.ROBPerThread + 256
	for _, b := range p.pipes {
		poolSize += b.FetchBuf.Cap()
	}
	if cap(prev.uopPool) >= poolSize {
		p.uopPool = prev.uopPool[:poolSize]
		clear(p.uopPool)
	} else {
		p.uopPool = make([]pipeline.UOp, poolSize)
	}
	p.freeUOps = prev.freeUOps[:0]
	for i := poolSize - 1; i >= 0; i-- {
		p.freeUOps = append(p.freeUOps, &p.uopPool[i])
	}

	// Pre-size the event-ring slots from one backing array. Per-slot
	// occupancy usually stays in single digits; seeding capacity keeps
	// steady-state stepping allocation-free instead of trickling growth
	// events for the whole run as rare occupancy peaks are discovered.
	// Rings of the same lengths are reused emptied, their slots keeping
	// whatever capacity they grew to.
	completionSlots, flushSlots, timerSlots := ringSize, ringSlots(flushReach), ringSlots(timerReach)
	if len(prev.completions) == completionSlots && len(prev.flushAt) == flushSlots && len(prev.issueTimers) == timerSlots {
		p.completions, p.flushAt, p.issueTimers = prev.completions, prev.flushAt, prev.issueTimers
		p.completions.clear()
		p.flushAt.clear()
		p.issueTimers.clear()
	} else {
		backing := make([]*pipeline.UOp, (completionSlots+flushSlots+timerSlots)*slotCap)
		p.completions = newEventRing(completionSlots, &backing)
		p.flushAt = newEventRing(flushSlots, &backing)
		p.issueTimers = newEventRing(timerSlots, &backing)
	}
	return p, nil
}

// renewHierarchy returns the default (paper Table 1) memory hierarchy:
// old, reset, when there is one.
func renewHierarchy(old *cache.Hierarchy) *cache.Hierarchy {
	if old == nil {
		return cache.NewHierarchy()
	}
	old.Reset()
	old.Params = cache.DefaultParams()
	return old
}

// renewPredictor returns a new predictor for the given thread count: old,
// reset, when it has that many threads.
func renewPredictor(old *branch.Predictor, threads int) *branch.Predictor {
	if old == nil || old.Threads() != threads {
		return branch.NewPredictor(threads)
	}
	old.Reset()
	return old
}

// renewBTB returns a new BTB: old, reset, when there is one.
func renewBTB(old *branch.BTB) *branch.BTB {
	if old == nil {
		return branch.NewBTB()
	}
	old.Reset()
	return old
}

// renewRegFile returns a new register file of n registers: old, reset,
// when it has that many.
func renewRegFile(old *regfile.File, n int) *regfile.File {
	if old == nil || old.Size() != n {
		return regfile.New(n)
	}
	old.Reset()
	return old
}

// worstCompletion returns the instruction class, among those the threads'
// programs hold, with the longest issue-to-completion distance, and that
// distance: the class's execution latency, plus for loads the slowest
// hierarchy access, plus the register-read delay every completion pays.
// The slowest load hits a TLB miss, misses the L1 and the L2, and queues
// behind every other data-cache access of its cycle: a bank serves one
// access per cycle, and a cycle's accesses are at most the loads the
// pipelines' load/store units issue plus the stores their commit
// bandwidth retires.
func (p *Processor) worstCompletion(specs []ThreadSpec) (isa.Class, int) {
	hp := p.hier.Params
	accesses := 0
	for _, m := range p.cfg.Pipelines {
		accesses += m.LdStUnits + m.Width
	}
	worstLoad := hp.L1HitLatency + hp.TLBMissCycles + (accesses - 1) + hp.L1MissPenalty + hp.MemLatency
	var worst isa.Class
	lat := -1
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		present := false
		for _, spec := range specs {
			present = present || spec.Program.Has(c)
		}
		if !present {
			continue
		}
		l := isa.Latency(c)
		if c.IsLoad() {
			l += worstLoad
		}
		if l > lat {
			worst, lat = c, l
		}
	}
	return worst, lat + p.cfg.Params.RegAccessLatency - 1
}

// Config returns the processor's configuration.
func (p *Processor) Config() config.Microarch { return p.cfg }

// Policy returns the active fetch policy.
func (p *Processor) Policy() fetch.Policy { return p.policy }

// Cycle returns the current cycle number.
func (p *Processor) Cycle() uint64 { return p.cycle }

// Work counts what the stage loop did on the host to simulate the cycles
// so far. It is kept out of Stats, which both stepping paths must report
// identically: these counts measure the simulator, not the simulated
// machine, and differ between the paths.
type Work struct {
	// Stepped counts the cycles the stage loop ran; the others were idle
	// cycles the optimized path skipped. On the reference path, which
	// steps every cycle, it equals Cycle() for Run.
	Stepped uint64
	// ReadyVisits counts the issue-queue entries issue selection offered
	// a functional unit or, on the reference path, polled.
	ReadyVisits uint64
	// HeadPeeks counts the reads of a thread's ROB head made to learn
	// whether it has completed (by commit, the idle skip, and writeback
	// clearing a busy-head flag).
	HeadPeeks uint64
}

// Work returns the stage loop's work counts so far.
func (p *Processor) Work() Work { return p.work }

// Hierarchy exposes the memory subsystem (for statistics inspection).
func (p *Processor) Hierarchy() *cache.Hierarchy { return p.hier }

// Predictor exposes the branch predictor (for statistics inspection).
func (p *Processor) Predictor() *branch.Predictor { return p.pred }

// ThreadStats returns a copy of thread i's counters.
func (p *Processor) ThreadStats(i int) ThreadStats {
	t := p.threads[i]
	st := t.stats
	st.Committed = t.committed
	return st
}

// Results summarizes a completed run.
type Results struct {
	Config    string
	Policy    string
	Cycles    uint64
	Committed []uint64 // per thread, correct-path instructions retired
	Threads   []ThreadStats

	// IPC is the combined throughput: total committed / cycles, the
	// paper's performance metric.
	IPC float64
	// PerThreadIPC is each thread's committed/cycles.
	PerThreadIPC []float64

	// Activity is the measured-phase per-unit access counters feeding the
	// activity-based energy model (sim.EnergyOf).
	Activity Activity

	// Sampled carries the systematic-sampling estimate when the run used
	// RunSampled (see sampled.go); nil for exact runs, and omitted from
	// JSON so exact-run encodings are unchanged.
	Sampled *SampleSummary `json:",omitempty"`
}

// Run simulates until one thread retires maxPerThread measured instructions
// (the paper's stopping rule: "each simulation finishes as soon as one
// thread ... finishes executing 300 million instructions") or the safety
// cycle cap is reached. When the processor was built WithWarmup(n), every
// thread first retires n unmeasured instructions. Run may be called once
// per Processor.
func (p *Processor) Run(maxPerThread uint64) (Results, error) {
	if maxPerThread == 0 {
		return Results{}, fmt.Errorf("core: zero instruction budget")
	}
	// A thread always makes forward progress (see package docs); the cap
	// only guards against simulator bugs. The slowest credible thread
	// (mcf-like, everything missing to memory) still beats 1 instruction
	// per 600 cycles.
	cycleCap := (p.warmup+maxPerThread)*600*uint64(len(p.threads)) + 1_000_000

	step := p.stepper()
	if p.warmup > 0 {
		for {
			step(p)
			allWarm := true
			for _, t := range p.threads {
				if t.committed < p.warmup {
					allWarm = false
					break
				}
			}
			if allWarm {
				break
			}
			if p.cycle > cycleCap {
				return Results{}, fmt.Errorf("core: warm-up of %d instructions did not finish within %d cycles", p.warmup, cycleCap)
			}
		}
	}

	// Snapshot the measurement baseline and arm per-thread targets.
	p.startCycle = p.cycle
	p.baseStats = p.stats
	p.baseActivity = p.activity.clone()
	p.baseThread = p.baseThread[:0]
	for i, t := range p.threads {
		p.baseThread = append(p.baseThread, p.ThreadStats(i))
		t.target = t.committed + maxPerThread
	}

	for {
		step(p)
		if p.anyFinished {
			break
		}
		if p.cycle > cycleCap {
			return Results{}, fmt.Errorf("core: no thread finished within %d cycles (budget %d): simulator stall", cycleCap, maxPerThread)
		}
	}
	return p.results(), nil
}

func (p *Processor) results() Results {
	cycles := p.cycle - p.startCycle
	r := Results{
		Config: p.cfg.Name,
		Policy: p.policy.Name(),
		Cycles: cycles,
	}
	var total uint64
	for i := range p.threads {
		st := p.ThreadStats(i).sub(p.baseThread[i])
		committed := st.Committed
		r.Committed = append(r.Committed, committed)
		r.Threads = append(r.Threads, st)
		total += committed
		r.PerThreadIPC = append(r.PerThreadIPC, float64(committed)/float64(cycles))
	}
	r.IPC = float64(total) / float64(cycles)
	r.Activity = p.activity.sub(p.baseActivity)
	return r
}

// sub returns the per-field difference s - base (measurement-phase deltas).
func (s ThreadStats) sub(base ThreadStats) ThreadStats {
	return ThreadStats{
		Committed:    s.Committed - base.Committed,
		Fetched:      s.Fetched - base.Fetched,
		WrongPath:    s.WrongPath - base.WrongPath,
		Squashed:     s.Squashed - base.Squashed,
		Mispredicts:  s.Mispredicts - base.Mispredicts,
		Flushes:      s.Flushes - base.Flushes,
		LoadMisses:   s.LoadMisses - base.LoadMisses,
		L2LoadMisses: s.L2LoadMisses - base.L2LoadMisses,
	}
}
