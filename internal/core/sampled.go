package core

import (
	"fmt"
	"math"

	"hdsmt/internal/isa"
	"hdsmt/internal/pipeline"
	"hdsmt/internal/trace"
)

// Sampled execution (SMARTS-style systematic sampling): instead of
// simulating every instruction through the detailed pipeline, RunSampled
// simulates short detailed intervals at a fixed period and fast-forwards
// functionally between them. The functional path retires instructions
// architecturally — advancing the trace stream and warming the branch
// predictor, BTB, RAS, caches and TLBs — without modeling the pipeline, so
// it costs a fraction of a detailed cycle per instruction. Per-interval
// IPCs aggregate into a point estimate with a CLT-based 95% confidence
// interval, making the accuracy of the cheap run a first-class output.

// SampleParams configures sampled execution. All counts are per-thread
// instructions.
type SampleParams struct {
	// Period is the sampling unit length: each unit advances every thread
	// exactly Period instructions, of which Warm+Detail run through the
	// detailed pipeline and the rest fast-forward functionally.
	Period uint64
	// Detail is the measured detailed-interval length. Each unit's
	// measurement stops when the first thread retires Detail instructions
	// past its warm-up (the paper's stopping rule, applied per interval).
	Detail uint64
	// Warm is the detailed warm-up run before each measured interval to
	// refill the pipeline, ROB and queues after a functional skip; it is
	// simulated in detail but not measured.
	Warm uint64
}

// Enabled reports whether the params request sampled execution.
func (sp SampleParams) Enabled() bool { return sp.Period > 0 }

// Validate checks internal consistency.
func (sp SampleParams) Validate() error {
	switch {
	case sp.Period == 0:
		return fmt.Errorf("core: sample period must be positive")
	case sp.Detail == 0:
		return fmt.Errorf("core: sample detail length must be positive")
	case sp.Warm+sp.Detail > sp.Period/2:
		return fmt.Errorf("core: detailed portion %d+%d must be at most half the period %d",
			sp.Warm, sp.Detail, sp.Period)
	}
	return nil
}

// DefaultSampleParams is the tuned operating point for the paper's
// workloads: 3% of the stream in detail, the rest fast-forwarded.
// The windows are long (a few thousand instructions) because short windows
// cannot amortize the post-drain transient — the drain squashes in-flight
// misses, so each window's first memory round trips are unrepresentative.
func DefaultSampleParams() SampleParams {
	return SampleParams{Period: 100_000, Detail: 2_000, Warm: 2_000}
}

// SampleInterval is one measured detailed interval.
type SampleInterval struct {
	Cycles    uint64
	Committed uint64 // total across threads
	IPC       float64
	Activity  Activity
}

// SampleSummary describes a sampled run: the sampling parameters, the
// per-interval measurements, and the CLT aggregate. IPCMoE is the 95%
// margin of error (z=1.96) of the per-interval IPC mean, floored at
// moeFloorFrac of the mean to account for systematic warm-up bias the
// sampling distribution cannot see.
type SampleSummary struct {
	Period uint64
	Detail uint64
	Warm   uint64

	Units   int
	Covered uint64 // leader-thread instructions advanced (units * Period)
	// IPCMean is the ratio estimate ΣCommitted/ΣCycles over the measured
	// windows (matching the exact run's IPC definition); IPCStdDev the
	// linearized per-interval deviation whose /√Units scaling gives the
	// estimator's standard error; IPCMoE the reported 95% margin.
	IPCMean   float64
	IPCStdDev float64
	IPCMoE    float64

	Intervals []SampleInterval
}

// moeFloorFrac is the relative floor applied to reported margins of error:
// CLT intervals only capture sampling noise, not the small systematic bias
// of truncated pipeline warm-up, so arbitrarily tight intervals from
// low-variance workloads would be dishonest.
const moeFloorFrac = 0.015

// z95 is the two-sided 95% normal quantile.
const z95 = 1.96

// RunSampled measures maxPerThread instructions using systematic
// sampling: units = ceil(maxPerThread/Detail) units, each measuring one
// detailed interval and fast-forwarding the remainder of the period
// functionally, covering units*Period instructions of the leading thread's
// stream from a cold start. The estimate therefore targets an exact Run
// over units*Period instructions, transient included, not one over
// maxPerThread. To estimate an exact run of B instructions, pass
// ⌊B/Period⌋×Detail: it covers the whole periods that fit in B.
// When the processor was built WithWarmup(n), the first n instructions of
// every thread fast-forward functionally before the first unit. Like Run,
// RunSampled may be called once per Processor.
func (p *Processor) RunSampled(maxPerThread uint64, sp SampleParams) (Results, error) {
	if maxPerThread == 0 {
		return Results{}, fmt.Errorf("core: zero instruction budget")
	}
	if err := sp.Validate(); err != nil {
		return Results{}, err
	}
	units := int((maxPerThread + sp.Detail - 1) / sp.Detail)
	if units < 2 {
		return Results{}, fmt.Errorf("core: sampled run needs at least 2 intervals (budget %d, detail %d)", maxPerThread, sp.Detail)
	}

	// Pre-size everything the unit loop touches so the steady state stays
	// allocation-free (the uop pool and event rings are reused across
	// intervals by construction — they belong to the Processor).
	np := len(p.pipes)
	intervals := make([]SampleInterval, 0, units)
	activityBacking := make([]PipeActivity, units*np)
	unitBase := make([]uint64, len(p.threads))
	skip := make([]uint64, len(p.threads))
	p.sampleCommitted = make([]uint64, len(p.threads))
	p.sampleScratch = make([]uint64, len(p.threads))
	p.sampleWarmScratch = make([]uint64, len(p.threads))
	p.samplePipeScratch = make([]PipeActivity, np)
	p.buildSampleCtl()

	if p.warmup > 0 {
		for i := range skip {
			skip[i] = p.warmup
		}
		p.fastSkip(skip)
		p.alignFetch()
	}

	for u := 0; u < units; u++ {
		iv, err := p.runSampleUnit(sp, activityBacking[u*np:u*np:(u+1)*np], unitBase, skip)
		if err != nil {
			return Results{}, fmt.Errorf("core: sampling unit %d: %w", u, err)
		}
		intervals = append(intervals, iv)
	}
	return p.sampledResults(sp, intervals), nil
}

// runSampleUnit runs one sampling unit: a detailed interval followed by a
// drain and the functional skip to the next period boundary. unitBase and
// skip are caller-owned scratch (one slot per thread).
func (p *Processor) runSampleUnit(sp SampleParams, pipeBacking []PipeActivity, unitBase, skip []uint64) (SampleInterval, error) {
	for i, t := range p.threads {
		unitBase[i] = t.committed
	}
	iv, err := p.sampleDetailed(sp, pipeBacking)
	if err != nil {
		return iv, err
	}
	p.drainInflight()
	// Fast-forward each thread proportionally to its measured rate: the
	// unit's leader advances exactly Period, a thread that committed half
	// as much advances half as far. Co-running threads progress at very
	// different natural rates (the exact run stops when the FIRST thread
	// exhausts the budget), so a lockstep skip would oversample slow
	// threads' streams and distort the mix the detailed windows see.
	var lead uint64
	for i, t := range p.threads {
		if d := t.committed - unitBase[i]; d > lead {
			lead = d
		}
	}
	// The effective period is jittered deterministically in [P/2, 3P/2) —
	// mean P — so window positions do not alias with periodic program phases
	// (plain systematic sampling hits the same loop phase every unit when
	// the phase length divides the period).
	period := sp.Period/2 + unitHash(p.sampleUnit)%sp.Period
	for i, t := range p.threads {
		done := t.committed - unitBase[i]
		if end := unitBase[i] + period*done/lead; end > t.committed {
			skip[i] = end - t.committed
		} else {
			skip[i] = 0
		}
	}
	p.fastSkip(skip)
	p.alignFetch()
	return iv, nil
}

// funcWarmCap bounds the functionally warmed tail of a skip (leader-thread
// instructions; co-runners warm proportional slices). Warming exists to
// restore recency order in the shared structures before the next detailed
// window, and the structures are small enough that the most recent ~16K
// instructions decide nearly every replacement the window observes; the
// stretch before the tail advances architectural state only, at a fraction
// of the warming cost. The aging is honest: the skip still advances the
// clock, so lines the previous window touched grow old by the full skip.
const funcWarmCap = 16_384

// fastSkip advances every thread by counts[i] instructions. Skips up to
// funcWarmCap run entirely through the functional-warming path; for longer
// skips only the proportional tail warms and the rest advances trace state
// alone (Stream.Advance).
func (p *Processor) fastSkip(counts []uint64) {
	var lead uint64
	for _, n := range counts {
		if n > lead {
			lead = n
		}
	}
	if lead <= funcWarmCap {
		p.warmInterleaved(counts)
		return
	}
	warm := p.sampleWarmScratch
	for i, t := range p.threads {
		w := counts[i] * funcWarmCap / lead
		p.skipThread(t, counts[i]-w)
		warm[i] = w
	}
	p.warmInterleaved(warm)
}

// buildSampleCtl builds the per-thread control observers that keep the
// branch structures warm through a bulk skip (one closure per thread,
// built once per run so the unit loop stays allocation-free).
func (p *Processor) buildSampleCtl() {
	p.sampleCtl = make([]trace.ControlFunc, len(p.threads))
	for i, t := range p.threads {
		id := t.id
		p.sampleCtl[i] = func(class isa.Class, pc, target uint64, taken bool) {
			switch class {
			case isa.Branch:
				p.pred.Resolve(id, pc, taken)
			case isa.Call:
				p.ras[id].Push(pc + isa.InstrBytes)
			case isa.Return:
				p.ras[id].Pop()
			}
			if taken {
				p.btb.Update(pc, target)
			}
		}
	}
}

// skipThread advances t by n instructions architecturally — trace state,
// commit count and replay buffer. The branch structures (predictor, BTB,
// RAS) stay continuously warm through the skip: direction prediction
// converges over hundreds of thousands of instructions, far too slowly for
// a bounded warming tail to restore. Caches and TLBs are NOT touched —
// their recency state is rebuilt by the warmed tail — so the skip needs no
// effective addresses and the trace stream advances in bulk without
// materializing anything. The clock does NOT advance across the skipped
// stretch: in continuous execution the resident set is re-touched
// throughout the period and stays young, so carrying the pre-skip contents
// forward un-aged approximates it far better than aging them out of the
// large structures (which leaves memory-bound threads artificially cold at
// every window). Buffered instructions the detailed window already fetched
// ahead are consumed first.
func (p *Processor) skipThread(t *thread, n uint64) {
	if n == 0 {
		return
	}
	ctl := p.sampleCtl[t.id]
	t.rewindTo(t.committed)
	for n > 0 && t.cursor < len(t.buf) {
		in := &t.buf[t.cursor]
		if in.Class.IsControl() {
			ctl(in.Class, in.PC, in.Target, in.Taken)
		}
		seq := in.Seq
		t.cursor++
		t.committed++
		t.retireTrim(seq)
		n--
	}
	if n == 0 {
		return
	}
	t.stream.Advance(n, ctl)
	t.committed += n
	t.buf = t.buf[:0]
	t.bufBase = t.committed
	t.cursor = 0
}

// warmChunk is the sweep granularity of the interleaved functional skip.
const warmChunk = 256

// unitHash mixes a sampling-unit index into a deterministic pseudo-random
// value (splitmix64 finalizer) for period jitter.
func unitHash(u uint64) uint64 {
	x := (u + 1) * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// warmInterleaved fast-forwards every thread by counts[i] instructions,
// interleaving the threads in proportional chunks so shared recency state
// (caches, TLBs, BTB) sees the accesses in an order resembling concurrent
// execution rather than one thread's entire skip before the next's.
func (p *Processor) warmInterleaved(counts []uint64) {
	var lead uint64
	for _, n := range counts {
		if n > lead {
			lead = n
		}
	}
	if lead == 0 {
		return
	}
	progress := p.sampleScratch
	for i := range progress {
		progress[i] = 0
	}
	sweeps := (lead + warmChunk - 1) / warmChunk
	for s := uint64(1); s <= sweeps; s++ {
		for i, t := range p.threads {
			goal := counts[i] * s / sweeps
			if goal > progress[i] {
				p.warmThread(t, goal-progress[i])
				progress[i] = goal
			}
		}
	}
}

// sampleDetailed runs one detailed interval: an unmeasured warm-up until
// every thread retires sp.Warm instructions, then a measured window that
// stops when the first thread retires sp.Detail instructions. pipeBacking
// receives the interval's per-pipe activity deltas (caller-owned, so the
// loop allocates nothing).
func (p *Processor) sampleDetailed(sp SampleParams, pipeBacking []PipeActivity) (SampleInterval, error) {
	cycleCap := p.cycle + (sp.Warm+sp.Detail)*600*uint64(len(p.threads)) + 1_000_000
	scratch := p.sampleScratch
	if sp.Warm > 0 {
		// Like the measured window, warm-up follows the leader: it ends when
		// the first thread retires sp.Warm instructions. Waiting for every
		// thread would stall the interval on memory-bound threads and force
		// the very lockstep progress the proportional skip avoids. The cycle
		// floor covers a few full memory round trips: the drain squashed
		// every in-flight miss, so without it memory-bound threads would
		// start every measured window at the head of a fresh full-latency
		// stall — frozen and exerting no shared-resource pressure — instead
		// of mid-rhythm as in continuous execution.
		hp := p.hier.Params
		rt := uint64(hp.L1HitLatency + hp.L1MissPenalty + hp.L2Latency + hp.MemLatency)
		// Deterministic per-unit jitter breaks phase-locking between the
		// sampling cadence and periodic stall rhythms (a memory-bound
		// thread's miss/burst cycle would otherwise sit at the same phase in
		// every measured window).
		jitter := (p.sampleUnit * 2654435761) % rt
		floor := p.cycle + 3*rt + jitter
		p.horizon = floor
		for i, t := range p.threads {
			scratch[i] = t.committed + sp.Warm
		}
		for {
			p.step()
			warm := p.cycle >= floor
			if warm {
				warm = false
				for i, t := range p.threads {
					if t.committed >= scratch[i] {
						warm = true
						break
					}
				}
			}
			if warm {
				break
			}
			if p.cycle > cycleCap {
				return SampleInterval{}, fmt.Errorf("interval warm-up of %d instructions did not finish within the cycle cap", sp.Warm)
			}
		}
	}

	startCycle := p.cycle
	baseActivity := p.activity
	baseActivity.Pipes = p.samplePipeScratch[:len(p.pipes)]
	copy(baseActivity.Pipes, p.activity.Pipes)
	for i, t := range p.threads {
		scratch[i] = t.committed
		t.target = t.committed + sp.Detail
	}
	// The window ends when the first thread retires sp.Detail instructions,
	// but never before a couple of memory round trips have elapsed: a window
	// shorter than a co-runner's stall/burst cycle would sample its commits
	// in unrepresentative fractions.
	hp := p.hier.Params
	windowFloor := startCycle + 2*uint64(hp.L1HitLatency+hp.L1MissPenalty+hp.L2Latency+hp.MemLatency)
	p.horizon = windowFloor
	disarmed := false
	for {
		p.step()
		if disarmed {
			if p.cycle >= windowFloor {
				break
			}
		} else if p.anyFinished {
			if p.cycle >= windowFloor {
				break
			}
			// Disarm every target and keep measuring until the floor.
			p.anyFinished = false
			for _, t := range p.threads {
				t.finished = false
				t.target = 0
			}
			disarmed = true
		}
		if p.cycle > cycleCap {
			return SampleInterval{}, fmt.Errorf("no thread retired %d instructions within the cycle cap: simulator stall", sp.Detail)
		}
	}
	p.anyFinished = false
	p.horizon = 0
	p.sampleUnit++
	var committed uint64
	for i, t := range p.threads {
		committed += t.committed - scratch[i]
		p.sampleCommitted[i] += t.committed - scratch[i]
		t.target = 0
		t.finished = false
	}

	cycles := p.cycle - startCycle
	return SampleInterval{
		Cycles:    cycles,
		Committed: committed,
		IPC:       float64(committed) / float64(cycles),
		Activity:  p.activity.subInto(baseActivity, pipeBacking),
	}, nil
}

// drainInflight squashes every in-flight instruction and empties the event
// rings, returning the pipeline to the architectural state at the last
// commit. The uop pool absorbs every record — nothing is reallocated for
// the next interval. Rename maps and the register file return to their
// empty/architectural state through the ordinary squash path, so their
// invariants hold by construction.
func (p *Processor) drainInflight() {
	for _, t := range p.threads {
		p.squashAllOf(t)
		t.flushStalled = nil
		t.wrongPath = false
		t.wrongPathPC = false
		t.lineBuf = 0
		t.fetchReadyAt = 0
	}
	for _, b := range p.pipes {
		for {
			u, ok := b.FetchBuf.PopHead()
			if !ok {
				break
			}
			if u.Stage != pipeline.StageSquashed {
				panic(fmt.Sprintf("core: draining fetch buffer found stage %v", u.Stage))
			}
			p.releaseUOp(u)
		}
	}
	for _, slot := range p.completions {
		for _, u := range slot {
			// Issued uops stay referenced only by their completion entry
			// (squashUOp leaves them to be recycled here); flushAt entries
			// alias completions entries and must not double-release.
			if u.Stage != pipeline.StageSquashed {
				panic(fmt.Sprintf("core: draining completions found stage %v", u.Stage))
			}
			p.releaseUOp(u)
		}
	}
	p.completions.clear()
	p.flushAt.clear()
	p.issueTimers.clear()
	// The reference stepping path polls queues directly and lets readyCount
	// drift (it is an optimized-path fast-out only), so the invariant check
	// applies to the optimized path; after a drain the queues are empty, so
	// zero is the true count on both paths.
	if !p.reference && (p.readyCount != 0 || p.doneCount != 0) {
		panic(fmt.Sprintf("core: nonzero scheduler counts after drain (ready=%d done=%d)", p.readyCount, p.doneCount))
	}
	p.readyCount, p.doneCount = 0, 0
}

// alignFetch repositions every thread's fetch engine at the oldest
// uncommitted correct-path instruction (the same realignment a dynamic
// remap performs on attach).
func (p *Processor) alignFetch() {
	for _, t := range p.threads {
		t.rewindTo(t.committed)
		t.pc = t.nextCorrect().PC
	}
}

// warmThread retires n instructions of t functionally: the trace stream
// advances and the shared predictor, BTB, RAS and cache hierarchy are
// updated per instruction, but no uop ever enters the pipeline. This is
// the fast-forward path between detailed intervals; it shares the thread's
// replay buffer, so an interval boundary needs no stream surgery.
func (p *Processor) warmThread(t *thread, n uint64) {
	// Fetch may have run ahead of (or diverged from) the commit point; the
	// functional path resumes exactly at the oldest uncommitted instruction.
	t.rewindTo(t.committed)
	c := p.cycle
	line := uint64(math.MaxUint64)
	for k := uint64(0); k < n; k++ {
		// Advance time one cycle per instruction: replacement in the caches,
		// TLBs and BTB is recency-based, so warming with a frozen clock would
		// give every warmed line the same stamp and corrupt the LRU order the
		// detailed interval then sees.
		c++
		in := t.nextCorrect()
		if l := in.PC &^ 63; l != line {
			p.hier.Fetch(in.PC, c)
			line = l
		}
		switch in.Class {
		case isa.Branch:
			p.pred.Resolve(t.id, in.PC, in.Taken)
		case isa.Call:
			p.ras[t.id].Push(in.FallThrough())
		case isa.Return:
			p.ras[t.id].Pop()
		case isa.Load:
			p.hier.Load(in.EffAddr, c)
		case isa.Store:
			p.hier.Store(in.EffAddr, c)
		}
		if in.Class.IsControl() && in.Taken {
			p.btb.Update(in.PC, in.Target)
		}
		seq := in.Seq
		t.advanceCorrect()
		t.committed++
		t.retireTrim(seq)
	}
	p.cycle = c
}

// sampledResults aggregates the measured intervals into Results: totals
// over the measured windows plus the Sampled summary. The point estimate is
// the ratio of sums (total committed / total cycles across the sampled
// windows), matching the exact run's definition of IPC; the margin of error
// comes from the standard linearization of the ratio estimator, so the
// interval covers the ratio, not the (Jensen-biased) mean of window IPCs.
func (p *Processor) sampledResults(sp SampleParams, intervals []SampleInterval) Results {
	r := Results{
		Config: p.cfg.Name,
		Policy: p.policy.Name(),
	}
	mean, sd := ratioStats(intervals)
	moe := z95 * sd / math.Sqrt(float64(len(intervals)))
	if floor := moeFloorFrac * mean; moe < floor {
		moe = floor
	}
	for _, iv := range intervals {
		r.Cycles += iv.Cycles
		addInto(&r.Activity, iv.Activity)
	}
	for i := range p.threads {
		c := p.sampleCommitted[i]
		r.Committed = append(r.Committed, c)
		r.PerThreadIPC = append(r.PerThreadIPC, float64(c)/float64(r.Cycles))
	}
	r.IPC = mean
	r.Sampled = &SampleSummary{
		Period:    sp.Period,
		Detail:    sp.Detail,
		Warm:      sp.Warm,
		Units:     len(intervals),
		Covered:   uint64(len(intervals)) * sp.Period,
		IPCMean:   mean,
		IPCStdDev: sd,
		IPCMoE:    moe,
		Intervals: intervals,
	}
	return r
}

// ratioStats returns the ratio estimate R = ΣC/ΣY (committed over cycles)
// and the linearized per-interval standard deviation
// sqrt(Σ(Cᵢ−R·Yᵢ)²/(n−1))/ȳ, whose /√n scaling is the ratio estimator's
// standard error (Taylor linearization, the survey-sampling standard).
func ratioStats(intervals []SampleInterval) (ratio, sd float64) {
	n := float64(len(intervals))
	var sumC, sumY float64
	for _, iv := range intervals {
		sumC += float64(iv.Committed)
		sumY += float64(iv.Cycles)
	}
	ratio = sumC / sumY
	if len(intervals) < 2 {
		return ratio, 0
	}
	var ss float64
	for _, iv := range intervals {
		d := float64(iv.Committed) - ratio*float64(iv.Cycles)
		ss += d * d
	}
	ybar := sumY / n
	return ratio, math.Sqrt(ss/(n-1)) / ybar
}
