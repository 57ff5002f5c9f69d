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

	hier  *cache.Hierarchy
	pred  *branch.Predictor
	btb   *branch.BTB
	ras   []*branch.RAS
	rf    *regfile.File
	pipes []*pipeline.Backend

	threads []*thread

	cycle uint64
	// stepped counts the cycles the stage loop actually ran; the rest of
	// the clock was skipped by fastForward. Kept out of Stats, which both
	// stepping paths must report identically.
	stepped uint64
	// horizon, when ahead of the clock, is a cycle the driving loop tests
	// the clock against (a sampled window's cycle floor). fastForward never
	// jumps past it, so the loop stops at the same cycle on both paths.
	horizon uint64

	// The three event sources of the wakeup scheduler, each a timing wheel
	// (see eventRing) sized to the farthest distance its events are
	// scheduled ahead: completions reach up to ringSize-1 cycles (the
	// worst-case memory latency), FLUSH detections exactly the hierarchy's
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

	// reference selects the naive stepping path (per-cycle polling of all
	// issue-queue entries, no idle-cycle fast-forward). Simulated behaviour
	// is bit-identical to the optimized path; tests assert it.
	reference bool

	// freeUOps recycles retired/squashed uop records (never ones that a
	// pending event ring entry may still reference).
	freeUOps []*pipeline.UOp

	// commitHook, when set, observes every architecturally retired
	// instruction in commit order (used by validation tests).
	commitHook func(thread int, in isa.Instruction)

	// Dynamic remapping (see dynamic.go).
	remapInterval uint64
	remapper      Remapper
	migrations    uint64

	// Scratch reused across cycles to avoid per-cycle allocation.
	orderScratch  []int
	stateScratch  []fetch.ThreadState
	issuedScratch []*pipeline.UOp
	remapMisses   []uint64
	remapPipes    []int

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

// WithReferenceStepping selects the naive stepping path: issueStage polls
// every issue-queue entry every cycle and idle cycles are stepped one by
// one, as the simulator did before the event-driven wakeup scheduler. The
// simulated machine behaves bit-identically in both modes (asserted by the
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

	p := &Processor{
		cfg:       cfg,
		policy:    fetch.ForConfig(cfg.Monolithic),
		flushMech: cfg.Monolithic,
		hier:      cache.NewHierarchy(),
		pred:      branch.NewPredictor(len(specs)),
		btb:       branch.NewBTB(),
		rf:        regfile.New(cfg.Params.RenameRegs),
	}
	maxFetchBuf := 0
	for i, m := range cfg.Pipelines {
		b := pipeline.NewBackend(i, m, cfg.Params.FetchWidth)
		p.pipes = append(p.pipes, b)
		maxFetchBuf = max(maxFetchBuf, b.FetchBuf.Cap())
	}
	p.activity.Pipes = make([]PipeActivity, len(p.pipes))
	// A thread's replay buffer peaks at its uncommitted correct-path
	// instructions (its ROB plus the largest fetch buffer it may be mapped
	// to) plus the committed prefix awaiting a trim batch.
	replayCap := cfg.Params.ROBPerThread + maxFetchBuf + trimBatch
	for i, spec := range specs {
		if spec.Program == nil {
			return nil, fmt.Errorf("core: thread %d has no program", i)
		}
		t := newThread(i, spec, cfg.Params.ROBPerThread, replayCap)
		p.threads = append(p.threads, t)
		p.ras = append(p.ras, branch.NewRAS())
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
	// would silently wrap onto earlier cycles. The completion path already
	// guards per-event (issueOne panics); the FLUSH-detect and issue-timer
	// distances are fixed by construction parameters, so validate them here
	// instead of wrapping silently at run time, and size their rings to
	// them below. Any reach below ringSize is accepted.
	flushReach := p.hier.L2DetectLatency()
	if flushReach <= 0 || flushReach >= ringSize {
		return nil, fmt.Errorf("core: FLUSH L2-miss detect latency %d outside event ring (0, %d)", flushReach, ringSize)
	}
	timerReach := frontLatency + cfg.Params.RegAccessLatency - 1
	if timerReach <= 0 || timerReach >= ringSize {
		return nil, fmt.Errorf("core: front-end issue delay %d outside event ring (0, %d)", timerReach, ringSize)
	}
	p.waiters = make([][]waiter, p.rf.Size())
	waiterBacking := make([]waiter, 4*p.rf.Size())
	for i := range p.waiters {
		p.waiters[i] = waiterBacking[i*4 : i*4 : (i+1)*4]
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
	pool := make([]pipeline.UOp, poolSize)
	p.freeUOps = make([]*pipeline.UOp, 0, poolSize)
	for i := poolSize - 1; i >= 0; i-- {
		p.freeUOps = append(p.freeUOps, &pool[i])
	}

	// Pre-size the event-ring slots from one backing array. Per-slot
	// occupancy usually stays in single digits; seeding capacity keeps
	// steady-state stepping allocation-free instead of trickling growth
	// events for the whole run as rare occupancy peaks are discovered.
	completionSlots, flushSlots, timerSlots := ringSize, ringSlots(flushReach), ringSlots(timerReach)
	backing := make([]*pipeline.UOp, (completionSlots+flushSlots+timerSlots)*slotCap)
	p.completions = newEventRing(completionSlots, &backing)
	p.flushAt = newEventRing(flushSlots, &backing)
	p.issueTimers = newEventRing(timerSlots, &backing)
	return p, nil
}

// Config returns the processor's configuration.
func (p *Processor) Config() config.Microarch { return p.cfg }

// Policy returns the active fetch policy.
func (p *Processor) Policy() fetch.Policy { return p.policy }

// Cycle returns the current cycle number.
func (p *Processor) Cycle() uint64 { return p.cycle }

// Stepped returns how many of the Cycle() cycles so far the stage loop ran;
// the others were idle cycles the optimized path skipped. On the reference
// path, which steps every cycle, it equals Cycle() for Run.
func (p *Processor) Stepped() uint64 { return p.stepped }

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

	if p.warmup > 0 {
		for {
			p.step()
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
		p.step()
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
		Migrations:   s.Migrations - base.Migrations,
	}
}
