package core

import (
	"fmt"
	"math/bits"

	"hdsmt/internal/fetch"
	"hdsmt/internal/isa"
	"hdsmt/internal/pipeline"
	"hdsmt/internal/regfile"
	"hdsmt/internal/trace"
)

// ringSize bounds how far ahead any event can be scheduled, and is the
// completion ring's length: it must exceed the worst-case completion
// latency (TLB miss 300 + L1 miss 22 + memory 250 + execute + register
// write ≈ 600).
const ringSize = 1024

// slotCap is the capacity each event-ring slot is pre-sized to.
const slotCap = 16

// eventRing is a timing wheel of uop events: an event due at cycle c sits
// in slot c & (len-1). Its length is a power of two above the ring's reach
// (the farthest distance ahead any event is scheduled), so the pending
// events — all due in (now, now+reach] — never share a slot with one due
// at a different cycle, and a slot is drained at its cycle before new
// events can land in it again. Slots are recycled slices, avoiding
// per-cycle map traffic.
type eventRing [][]*pipeline.UOp

// ringSlots is the length of a ring of the given reach: the smallest power
// of two above it.
func ringSlots(reach int) int { return 1 << bits.Len(uint(reach)) }

// newEventRing builds a ring of n slots, carving each slot's slotCap
// capacity off the front of *backing.
func newEventRing(n int, backing *[]*pipeline.UOp) eventRing {
	r := make(eventRing, n)
	for i := range r {
		r[i] = (*backing)[:0:slotCap]
		*backing = (*backing)[slotCap:]
	}
	return r
}

// slot returns the index of the slot holding events due at cycle c.
func (r eventRing) slot(c uint64) int { return int(c & uint64(len(r)-1)) }

// add schedules u at cycle c.
func (r eventRing) add(c uint64, u *pipeline.UOp) {
	s := r.slot(c)
	r[s] = append(r[s], u)
}

// pending reports whether any event is due at cycle c.
func (r eventRing) pending(c uint64) bool { return len(r[r.slot(c)]) != 0 }

// clear empties every slot, keeping its capacity.
func (r eventRing) clear() {
	for s := range r {
		r[s] = r[s][:0]
	}
}

// step advances the processor one cycle. Stages run commit-first (reverse
// pipeline order) so resources freed in a cycle become usable the next
// cycle, the conventional discipline for cycle-level simulators. When the
// machine is provably idle, the clock first fast-forwards over the cycles
// in which no stage could make progress (see fastForward).
func (p *Processor) step() {
	if !p.reference {
		p.fastForward()
	}
	p.cycle++
	p.stepped++
	p.stats.Cycles = p.cycle
	p.maybeRemap()
	p.commitStage()
	p.writebackStage()
	p.issueStage()
	p.dispatchStage()
	p.fetchStage()
}

// fastForward jumps the clock to just before the next scheduled event when
// the coming cycles cannot change machine state:
//
//   - no issue-queue ready list has an entry (nothing to issue),
//   - no unfinished thread's ROB head has completed (nothing to commit;
//     completed uops queued behind an unfinished head, typically the
//     younger work behind a load missing to memory, wait for the head),
//   - no pipeline can dispatch: its fetch buffer is empty, or the head is
//     provably blocked — owning thread's ROB full, target queue full, or
//     the shared register file exhausted,
//   - no thread is fetchable until some known future cycle.
//
// Every one of those blockers is lifted only by an event already on the
// books — a completion, a FLUSH detection, an issue timer, an I-cache fill
// arriving, or a dynamic-remap boundary — so the intermediate cycles are
// exactly those the reference stepping would grind through without
// effect, and skipping them is accounting-identical for every simulated
// quantity. (The single exception is per-cycle stall-attempt polling
// counters — regfile.Stats.AllocFails — which by construction count
// skipped polls; nothing in Results derives from them.) The jump also
// stops at the horizon, the cycle a sampled window's loop waits for, so
// that loop ends on the cycle it would on the reference path. Typical win:
// a 250-cycle memory stall costs one ring scan instead of 250 full stage
// sweeps.
func (p *Processor) fastForward() {
	// Fast fail for busy cycles: anything issuable means next cycle has
	// work, and so does a completed ROB head. A thread with no completed
	// uop at all (doneUops == 0) cannot have one, sparing the ROB peek.
	if p.readyCount != 0 {
		return
	}
	for _, t := range p.threads {
		if t.doneUops == 0 || t.finished {
			continue
		}
		if u, ok := t.rob.Head(); ok && u.Stage == pipeline.StageDone {
			return // commit retires it next cycle
		}
	}
	c := p.cycle
	for _, b := range p.pipes {
		if u, ok := b.FetchBuf.Head(); ok {
			if u.Stage == pipeline.StageSquashed {
				return // dispatch drains it next cycle
			}
			t := p.threads[u.Thread]
			if !t.rob.Full() && !b.QueueFor(u.Inst.Class).Full() &&
				(!u.Inst.HasDest() || p.rf.FreeCount() > 0) {
				return // head dispatches next cycle
			}
		}
	}
	// limit is the nearest non-ring event; start at the ring horizon (ring
	// slots only hold events less than ringSize ahead).
	limit := c + ringSize
	for _, t := range p.threads {
		if t.finished {
			continue
		}
		if t.pipe >= 0 && t.flushStalled == nil && !t.wrongPathPC &&
			!p.pipes[t.pipe].FetchBuf.Full() {
			if t.fetchReadyAt <= c+1 {
				return // fetch engine can pick this thread next cycle
			}
			if t.fetchReadyAt < limit {
				limit = t.fetchReadyAt
			}
		}
	}
	if p.remapInterval != 0 {
		if next := (c/p.remapInterval + 1) * p.remapInterval; next < limit {
			limit = next
		}
	}
	if p.horizon > c && p.horizon < limit {
		limit = p.horizon
	}
	// Each ring holds only events due within its reach, which is below its
	// length, so the first cycle whose slot is non-empty in any ring is
	// exactly the next event: a slot seen again past the ring's length is
	// one already found empty.
	target := limit
	for cc := c + 1; cc < limit; cc++ {
		if p.completions.pending(cc) || p.flushAt.pending(cc) || p.issueTimers.pending(cc) {
			target = cc
			break
		}
	}
	if target > c+1 {
		p.cycle = target - 1
	}
}

// ---------------------------------------------------------------- commit --

// commitStage retires completed instructions in order from each thread's
// ROB. Each pipeline has Width total commit bandwidth per cycle, shared
// among its threads; the starting thread rotates for fairness.
func (p *Processor) commitStage() {
	if !p.reference && p.doneCount == 0 {
		return // nothing has completed since the last commit
	}
	for _, b := range p.pipes {
		n := len(b.Threads)
		if n == 0 {
			continue
		}
		bw := b.Model.Width
		// Rotation without integer division: n is 1 or 2 in practice, and
		// the divisions ran every cycle per pipeline.
		start := 0
		if n > 1 {
			start = int(p.cycle % uint64(n))
		}
		for k := 0; k < n && bw > 0; k++ {
			idx := start + k
			if idx >= n {
				idx -= n
			}
			t := p.threads[b.Threads[idx]]
			if !p.reference && t.doneUops == 0 {
				continue // ROB head cannot be completed
			}
			for bw > 0 && !t.finished {
				u, ok := t.rob.Head()
				if !ok || u.Stage != pipeline.StageDone {
					break
				}
				p.commitOne(t, u)
				bw--
			}
		}
	}
}

func (p *Processor) commitOne(t *thread, u *pipeline.UOp) {
	if u.Inst.WrongPath {
		panic(fmt.Sprintf("core: committing wrong-path uop pc=%#x", u.Inst.PC))
	}
	if u.Inst.Class.IsStore() {
		// Stores retire their cache write at commit, so wrong-path stores
		// never touch memory state.
		p.hier.Store(u.Inst.EffAddr, p.cycle)
		p.activity.DCacheWrites++
	}
	if u.Inst.HasDest() {
		t.renameMap.Commit(u)
		p.rf.Release(u.DestPhys)
	}
	u.Stage = pipeline.StageCommitted
	p.doneCount--
	t.doneUops--
	t.rob.PopHead()
	if p.commitHook != nil {
		p.commitHook(t.id, u.Inst)
	}
	t.committed++
	p.stats.TotalCommitted++
	t.retireTrim(u.Inst.Seq)
	if t.target > 0 && t.committed >= t.target {
		t.finished = true
		p.anyFinished = true
	}
	p.releaseUOp(u)
}

// ------------------------------------------------------------- writeback --

// writebackStage completes executions finishing this cycle: results become
// visible, loads stop counting as in flight, control instructions resolve
// (training the predictor and triggering mispredict recovery), and pending
// FLUSH events fire.
func (p *Processor) writebackStage() {
	c := p.cycle
	// FLUSH events fire before completions: detection happens mid-flight,
	// well before the load's own completion cycle.
	slot := p.flushAt.slot(c)
	for _, u := range p.flushAt[slot] {
		if u.Stage == pipeline.StageIssued {
			p.doFlush(u)
		}
	}
	p.flushAt[slot] = p.flushAt[slot][:0]

	slot = p.completions.slot(c)
	for _, u := range p.completions[slot] {
		if u.Stage != pipeline.StageIssued {
			// Squashed while executing. The completion event is the last
			// reference to the record — its FLUSH-detect event, if any, is
			// never scheduled past the completion and fires first within a
			// cycle — so it can be recycled here rather than leak to the GC.
			if u.Stage == pipeline.StageSquashed {
				p.releaseUOp(u)
			}
			continue
		}
		u.Stage = pipeline.StageDone
		p.doneCount++
		t := p.threads[u.Thread]
		t.doneUops++
		if u.DestPhys != regfile.None {
			p.activity.RegWrites++
			p.wakeReg(u.DestPhys)
		}
		if u.Inst.Class.IsLoad() {
			t.inflightLoads--
		}
		if t.flushStalled == u {
			// The L2-missing load the FLUSH mechanism stalled this thread
			// on has resolved; fetch may proceed (paper: "the offending
			// thread is stalled until the load is resolved").
			t.flushStalled = nil
		}
		if u.Inst.Class.IsControl() && !u.Inst.WrongPath {
			p.resolveControl(t, u)
		}
	}
	p.completions[slot] = p.completions[slot][:0]
}

// resolveControl trains the front-end structures with a resolved
// correct-path control instruction and performs mispredict recovery.
func (p *Processor) resolveControl(t *thread, u *pipeline.UOp) {
	in := &u.Inst
	if in.Class.IsConditional() {
		p.pred.ResolveWith(t.id, in.PC, in.Taken, u.PredTaken)
	}
	if in.Taken {
		p.btb.Update(in.PC, in.Target)
	}
	if u.Mispredict {
		t.stats.Mispredicts++
		p.squashAfter(t, u.FetchSeq)
		t.pc = in.NextPC()
		t.wrongPath = false
		t.wrongPathPC = false
		// Redirect clobbers any pending fetch stall: an in-flight
		// wrong-path I-cache miss is moot once fetch steers elsewhere.
		t.fetchReadyAt = p.cycle + 1
	}
}

// doFlush implements the FLUSH mechanism (Tullsen & Brown; paper §4): on a
// detected L2 miss, the instructions after the missing load are flushed and
// the thread stalls until the load resolves, freeing shared resources for
// the other threads.
func (p *Processor) doFlush(u *pipeline.UOp) {
	t := p.threads[u.Thread]
	u.FlushMiss = true
	t.stats.Flushes++
	p.squashAfter(t, u.FetchSeq)
	t.flushStalled = u
	// Re-fetch resumes, after the stall, at the instruction following the
	// load; the squashed correct-path instructions replay from the buffer.
	t.rewindTo(u.Inst.Seq + 1)
	t.pc = u.Inst.FallThrough()
	t.wrongPath = false
	t.wrongPathPC = false
	t.fetchReadyAt = p.cycle + 1 // stale wrong-path fetch stalls are moot
}

// ---------------------------------------------------------------- squash --

// squashAfter removes every uop of thread t younger than fetch-order
// boundary: ROB entries youngest-first (so rename rollback is well ordered),
// then not-yet-dispatched fetch-buffer entries.
func (p *Processor) squashAfter(t *thread, boundary uint64) {
	for {
		u, ok := t.rob.Tail()
		if !ok || u.FetchSeq <= boundary {
			break
		}
		t.rob.PopTail()
		p.squashUOp(t, u)
	}
	b := p.pipes[t.pipe]
	b.FetchBuf.Do(func(i int, u *pipeline.UOp) bool {
		if u.Thread == t.id && u.FetchSeq > boundary && u.Stage == pipeline.StageFetched {
			p.squashUOp(t, u)
		}
		return true
	})
}

// squashUOp undoes one uop's resource holdings. Callers guarantee rename
// rollback order (youngest writer first within the thread).
func (p *Processor) squashUOp(t *thread, u *pipeline.UOp) {
	switch u.Stage {
	case pipeline.StageFetched:
		// Still in the fetch buffer: no rename state. The buffer slot
		// itself drains at dispatch.
		t.icount--
	case pipeline.StageDispatched:
		p.unwatch(u)
		if u.InReady {
			p.readyCount--
		}
		p.pipes[u.Pipe].QueueFor(u.Inst.Class).Remove(u)
		u.ReadSources(p.rf) // drop reader references
		if u.Inst.HasDest() {
			t.renameMap.Squash(u)
			p.rf.Release(u.DestPhys)
		}
		t.icount--
	case pipeline.StageIssued, pipeline.StageDone:
		// Sources were read at issue. The completion event, if still
		// pending, sees StageSquashed and is ignored.
		if u.Stage == pipeline.StageDone {
			p.doneCount--
			t.doneUops--
		}
		if u.Inst.HasDest() {
			t.renameMap.Squash(u)
			p.rf.Release(u.DestPhys)
		}
	default:
		panic(fmt.Sprintf("core: squashing uop in stage %v", u.Stage))
	}
	if u.Inst.Class.IsLoad() && u.Stage != pipeline.StageDone {
		t.inflightLoads--
	}
	// Issued uops stay referenced by their pending completion-ring entry
	// and must not be recycled; every other stage is safe. Fetched uops
	// remain in the fetch buffer until dispatch drains them, so they are
	// recycled there, not here.
	if u.Stage == pipeline.StageDispatched || u.Stage == pipeline.StageDone {
		p.releaseUOp(u)
	}
	u.Stage = pipeline.StageSquashed
	t.stats.Squashed++
	p.stats.TotalSquashed++
}

// ------------------------------------------------------------------ wake --

// waiter is one pending wakeup subscription: dispatched uop u is waiting
// for the value of its source operand slot src.
type waiter struct {
	u   *pipeline.UOp
	src int8
}

// wakeReg marks physical register ph produced and wakes the dispatched
// consumers waiting on it: each one's outstanding-source count drops, and
// a consumer whose last source just resolved becomes issuable — now, when
// its front-end delay has already elapsed, or at IssueAt via a timer ring
// entry when the value arrived early.
func (p *Processor) wakeReg(ph int) {
	p.rf.SetReady(ph)
	ws := p.waiters[ph]
	for _, w := range ws {
		u := w.u
		u.Waiting[w.src] = false
		u.WaitCount--
		if u.WaitCount == 0 {
			p.scheduleIssuable(u)
		}
	}
	p.waiters[ph] = ws[:0]
}

// scheduleIssuable routes a uop whose operands are all available to the
// ready list — immediately when cycle ≥ IssueAt, otherwise via the issue
// timer ring at IssueAt. Distances are bounded by frontLatency +
// RegAccessLatency - 1, the issue-timer ring's reach.
func (p *Processor) scheduleIssuable(u *pipeline.UOp) {
	if u.IssueAt <= p.cycle {
		p.pushReady(u)
		return
	}
	p.issueTimers.add(u.IssueAt, u)
	u.TimerQueued = true
}

// unwatch unsubscribes a dispatched uop from every wakeup source it is
// registered with (waiter lists and the issue-timer ring), so squashed
// records can be recycled without dangling event references. Ready-list
// membership is cleared by IssueQueue.Remove.
func (p *Processor) unwatch(u *pipeline.UOp) {
	for i := range u.Waiting {
		if !u.Waiting[i] {
			continue
		}
		u.Waiting[i] = false
		ws := p.waiters[u.Src[i]]
		for k, w := range ws {
			if w.u == u && w.src == int8(i) {
				ws[k] = ws[len(ws)-1]
				p.waiters[u.Src[i]] = ws[:len(ws)-1]
				break
			}
		}
	}
	u.WaitCount = 0
	if u.TimerQueued {
		u.TimerQueued = false
		slot := p.issueTimers.slot(u.IssueAt)
		ts := p.issueTimers[slot]
		for k, tu := range ts {
			if tu == u {
				ts[k] = ts[len(ts)-1]
				p.issueTimers[slot] = ts[:len(ts)-1]
				break
			}
		}
	}
}

// allocUOp takes a recycled uop record or allocates a fresh one.
func (p *Processor) allocUOp() *pipeline.UOp {
	if n := len(p.freeUOps); n > 0 {
		u := p.freeUOps[n-1]
		p.freeUOps = p.freeUOps[:n-1]
		return u
	}
	return new(pipeline.UOp)
}

// releaseUOp returns a uop record to the pool. Callers guarantee no pending
// event-ring entry still references it.
func (p *Processor) releaseUOp(u *pipeline.UOp) {
	p.freeUOps = append(p.freeUOps, u)
}

// ----------------------------------------------------------------- issue --

// issueStage selects ready instructions from each pipeline's queues
// (oldest-first, IQ then LQ then FQ) and starts them on functional units,
// up to the pipeline's width.
//
// The optimized path scans only the per-queue ready lists, which the
// wakeup machinery (wakeReg, the issue-timer ring, dispatch registration)
// keeps current: a uop appears there exactly when its last source has been
// produced and its front-end delay has elapsed. Ready lists order by
// dispatch stamp, so selection is identical to the reference oldest-first
// scan of every entry. Entries that lose a functional-unit race stay on
// the list and retry next cycle, exactly as the polling scan would.
func (p *Processor) issueStage() {
	c := p.cycle
	// Fire the front-end delay timers due this cycle. Ring entries are
	// exactly the uops whose operands resolved before IssueAt (squashes
	// remove theirs eagerly), so each one becomes issuable now.
	slot := p.issueTimers.slot(c)
	for _, u := range p.issueTimers[slot] {
		u.TimerQueued = false
		p.pushReady(u)
	}
	p.issueTimers[slot] = p.issueTimers[slot][:0]

	if p.reference {
		p.issueScanAll(c)
		return
	}
	if p.readyCount == 0 {
		return // no queue holds an issuable entry
	}

	extraRF := uint64(p.cfg.Params.RegAccessLatency - 1)
	issued := p.issuedScratch[:0]
	for _, b := range p.pipes {
		budget := b.Model.Width
		for _, q := range b.Queues {
			if budget == 0 {
				break
			}
			if q.ReadyLen() == 0 {
				continue
			}
			issued = issued[:0]
			for _, u := range q.Ready() {
				if budget == 0 {
					break
				}
				if !b.Units.TryIssue(u.Inst.Class, c) {
					continue
				}
				p.issueOne(u, c, extraRF)
				issued = append(issued, u)
				budget--
			}
			for _, u := range issued {
				p.readyCount--
				q.Remove(u)
			}
		}
	}
	p.issuedScratch = issued[:0]
}

// issueScanAll is the reference issue selection: poll every queue entry,
// oldest-first, checking operand readiness against the register file. It
// must stay behaviourally identical to the ready-list path above; the
// equivalence tests compare full runs under both.
func (p *Processor) issueScanAll(c uint64) {
	extraRF := uint64(p.cfg.Params.RegAccessLatency - 1)
	issued := p.issuedScratch[:0]
	for _, b := range p.pipes {
		budget := b.Model.Width
		for _, q := range b.Queues {
			if budget == 0 {
				break
			}
			issued = issued[:0]
			q.Do(func(u *pipeline.UOp) bool {
				if budget == 0 {
					return false
				}
				if u.IssueAt > c || !u.Ready(p.rf) {
					return true
				}
				if !b.Units.TryIssue(u.Inst.Class, c) {
					return true
				}
				p.issueOne(u, c, extraRF)
				issued = append(issued, u)
				budget--
				return true
			})
			for _, u := range issued {
				q.Remove(u)
			}
		}
	}
	p.issuedScratch = issued[:0]
}

func (p *Processor) issueOne(u *pipeline.UOp, c, extraRF uint64) {
	t := p.threads[u.Thread]
	for _, ph := range u.Src {
		if ph != regfile.None {
			p.activity.RegReads++
		}
	}
	u.ReadSources(p.rf)
	kind := isa.QueueFor(u.Inst.Class)
	pa := &p.activity.Pipes[u.Pipe]
	pa.QueueReads[kind]++
	pa.FUOps[kind]++
	lat := uint64(isa.Latency(u.Inst.Class))
	l2Miss := false
	if u.Inst.Class.IsLoad() {
		res := p.hier.Load(u.Inst.EffAddr, c)
		p.activity.DCacheReads++
		if res.L1Miss {
			p.activity.L2Accesses++
		}
		lat += uint64(res.Latency)
		if !u.Inst.WrongPath {
			if res.L1Miss {
				t.stats.LoadMisses++
			}
			if res.L2Miss {
				t.stats.L2LoadMisses++
				l2Miss = true
			}
		}
	}
	u.DoneCycle = c + lat + extraRF
	if u.DoneCycle-c >= ringSize {
		panic(fmt.Sprintf("core: completion latency %d exceeds event ring", u.DoneCycle-c))
	}
	// FLUSH detects the L2 miss once the load has been in the hierarchy
	// longer than an L2 hit could take. A load that completes before then
	// is never detected — and its record may be recycled by the time a
	// later detection would fire, so none is scheduled.
	if l2Miss && p.flushMech {
		if detect := c + uint64(p.hier.L2DetectLatency()); detect <= u.DoneCycle {
			p.flushAt.add(detect, u)
		}
	}
	u.Stage = pipeline.StageIssued
	p.stats.TotalIssued++
	t.icount--
	p.completions.add(u.DoneCycle, u)
}

// -------------------------------------------------------------- dispatch --

// dispatchStage moves instructions from each pipeline's fetch buffer through
// rename into the issue queues and the owning thread's ROB, in order, up to
// the pipeline width and its threads-per-cycle limit. A blocked head stalls
// the buffer (in-order dispatch).
func (p *Processor) dispatchStage() {
	var srcScratch [2]isa.Reg
	for _, b := range p.pipes {
		dispatched := 0
		var seen [2]int // thread ids dispatched this cycle (ThreadsPerCycle <= 2)
		nSeen := 0
		for dispatched < b.Model.Width {
			u, ok := b.FetchBuf.Head()
			if !ok {
				break
			}
			if u.Stage == pipeline.StageSquashed {
				b.FetchBuf.PopHead()
				p.releaseUOp(u)
				continue
			}
			isNew := true
			for i := 0; i < nSeen; i++ {
				if seen[i] == u.Thread {
					isNew = false
					break
				}
			}
			if isNew && nSeen >= b.Model.ThreadsPerCycle {
				break
			}
			t := p.threads[u.Thread]
			if t.rob.Full() {
				break
			}
			q := b.QueueFor(u.Inst.Class)
			if q.Full() {
				break
			}
			// Rename: allocate the destination, resolve the sources.
			if u.Inst.HasDest() {
				ph, ok := p.rf.Alloc()
				if !ok {
					break // shared register file exhausted: stall
				}
				u.DestPhys = ph
			}
			srcs := u.Inst.Sources(srcScratch[:0])
			for i, r := range srcs {
				ph := t.renameMap.Lookup(r)
				u.Src[i] = ph
				p.rf.AddReader(ph)
			}
			if u.Inst.HasDest() {
				t.renameMap.Rename(u)
			}
			p.activity.Decoded++
			p.activity.RenameReads += uint64(len(srcs))
			if u.Inst.HasDest() {
				p.activity.RenameWrites++
			}
			p.activity.Pipes[b.Index].QueueWrites[isa.QueueFor(u.Inst.Class)]++
			u.IssueAt = u.FetchCycle + frontLatency + uint64(p.cfg.Params.RegAccessLatency-1)
			u.Stage = pipeline.StageDispatched
			u.DispatchSeq = p.dispatchSeq
			p.dispatchSeq++
			q.Add(u)
			p.watch(u, q)
			if !t.rob.PushTail(u) {
				panic("core: ROB overflow after Full check")
			}
			b.FetchBuf.PopHead()
			p.stats.TotalDispatched++
			if isNew {
				seen[nSeen] = u.Thread
				nSeen++
			}
			dispatched++
		}
	}
}

// watch subscribes a just-dispatched uop to the wakeup source that will
// make it issuable: a waiter-list entry per source operand still in
// flight, or — when every operand is already available — the issue-timer
// ring (the ready list directly when dispatch was held up past IssueAt;
// issueStage runs before dispatchStage in a cycle, so it is first
// considered next cycle, exactly like the reference scan).
func (p *Processor) watch(u *pipeline.UOp, q *pipeline.IssueQueue) {
	u.WaitCount = 0
	for i := range u.Src {
		if ph := u.Src[i]; ph != regfile.None && !p.rf.Ready(ph) {
			u.WaitCount++
			u.Waiting[i] = true
			p.waiters[ph] = append(p.waiters[ph], waiter{u, int8(i)})
		}
	}
	if u.WaitCount == 0 {
		p.scheduleIssuable(u)
	}
}

// pushReady moves a now-issuable uop onto its queue's ready list.
func (p *Processor) pushReady(u *pipeline.UOp) {
	p.pipes[u.Pipe].QueueFor(u.Inst.Class).PushReady(u)
	p.readyCount++
}

// ----------------------------------------------------------------- fetch --

// fetchStage runs the shared fetch engine: the policy ranks threads, and up
// to FetchMaxThreads threads supply up to FetchWidth instructions total into
// their pipelines' decoupling buffers.
func (p *Processor) fetchStage() {
	c := p.cycle
	// Only fetchable threads are ranked (policies ignore the rest), so
	// states are built for those alone; stalled cycles build none.
	states := p.stateScratch[:0]
	for _, t := range p.threads {
		if t.fetchable(c) && !p.pipes[t.pipe].FetchBuf.Full() {
			states = append(states, fetch.ThreadState{
				ID:            t.id,
				Fetchable:     true,
				ICount:        t.icount,
				InflightLoads: t.inflightLoads,
				PipeWidth:     p.pipes[t.pipe].Model.Width,
			})
		}
	}
	p.stateScratch = states
	if len(states) == 0 {
		return
	}

	order := p.policy.Order(p.orderScratch[:0], states)
	p.orderScratch = order

	fetched, threadsUsed := 0, 0
	for _, tid := range order {
		if fetched >= p.cfg.Params.FetchWidth || threadsUsed >= p.cfg.Params.FetchMaxThreads {
			break
		}
		t := p.threads[tid]
		b := p.pipes[t.pipe]
		threadsUsed++
		line := t.pc &^ 63
		if t.lineBuf != line {
			res := p.hier.Fetch(t.pc, c)
			p.activity.ICacheReads++
			if res.L1Miss {
				p.activity.L2Accesses++
			}
			if res.L1Miss || res.TLBMiss {
				// The thread's fetch stalls until the line arrives in the
				// fill buffer; the cache port was consumed regardless.
				t.fetchReadyAt = c + uint64(res.Latency)
				t.lineBuf = line
				continue
			}
		}
		fetched += p.fetchThread(t, b, c, p.cfg.Params.FetchWidth-fetched)
	}
	p.stats.TotalFetched += uint64(fetched)
}

// fetchThread fetches up to budget instructions for t into its pipeline's
// buffer, stopping at the cache-line boundary, at a predicted-taken control
// instruction, or when the buffer fills.
func (p *Processor) fetchThread(t *thread, b *pipeline.Backend, c uint64, budget int) int {
	lineEnd := (t.pc &^ 63) + 64
	if space := b.FetchBuf.Space(); budget > space {
		budget = space // hoists the per-instruction Full() check
	}
	n := 0
	for n < budget && t.pc < lineEnd {
		u := p.fetchOne(t, c)
		if u == nil {
			break // wrong-path fetch escaped the program
		}
		if !b.FetchBuf.PushTail(u) {
			panic("core: fetch buffer overflow after Full check")
		}
		p.activity.Fetched++
		p.activity.Pipes[b.Index].FetchBufWrites++
		t.icount++
		if u.Inst.Class.IsLoad() {
			t.inflightLoads++
		}
		t.stats.Fetched++
		if u.Inst.WrongPath {
			t.stats.WrongPath++
		}
		n++
		if u.Inst.Class.IsControl() && u.PredTaken {
			break // fetch does not follow a taken redirect within a cycle
		}
	}
	return n
}

// wrongPathSeedSalt decorrelates wrong-path materializations from the
// correct path.
const wrongPathSeedSalt = 0x57505350 // "WPSP"

// fetchOne produces the uop at t.pc, consuming the correct-path stream or
// synthesizing a wrong-path instance, and runs branch prediction to advance
// the fetch PC.
func (p *Processor) fetchOne(t *thread, c uint64) *pipeline.UOp {
	// The record is reset field-by-field (sparing a duffzero of the
	// ~100-byte Inst that is immediately overwritten) and the instruction
	// written directly into it — one Instruction copy per fetch in total.
	u := p.allocUOp()
	if t.wrongPath {
		st, ok := t.spec.Program.StaticAt(t.pc)
		if !ok {
			// Predicted target escaped the program (e.g. an empty-RAS
			// return prediction): fetch idles until recovery.
			t.wrongPathPC = true
			p.releaseUOp(u)
			return nil
		}
		u.ResetFor(t.id, t.pipe, t.fetchSeq, c)
		u.Inst = trace.Materialize(st, t.spec.Seed^wrongPathSeedSalt, t.spec.DataBase, t.wpCount)
		u.Inst.WrongPath = true
		t.wpCount++
	} else {
		next := t.nextCorrect()
		if next.PC != t.pc {
			panic(fmt.Sprintf("core: thread %d fetch desync: pc=%#x stream=%#x",
				t.id, t.pc, next.PC))
		}
		u.ResetFor(t.id, t.pipe, t.fetchSeq, c)
		u.Inst = *next
		t.advanceCorrect()
	}
	in := &u.Inst
	t.fetchSeq++

	if !in.Class.IsControl() {
		t.pc = in.FallThrough()
		return u
	}

	p.activity.BranchLookups++
	predTaken, predTarget, bubble := p.predictControl(t, in)
	u.PredTaken = predTaken
	u.PredTarget = predTarget
	if !in.WrongPath {
		u.Mispredict = predTaken != in.Taken ||
			(predTaken && in.Taken && predTarget != in.Target)
		if u.Mispredict {
			t.wrongPath = true
		}
	}
	if predTaken {
		t.pc = predTarget
	} else {
		t.pc = in.FallThrough()
	}
	if bubble && t.fetchReadyAt < c+1 {
		t.fetchReadyAt = c + 1 // BTB miss: target computed at decode
	}
	return u
}

// predictControl predicts the direction and target of a control instruction
// at fetch. bubble reports a BTB miss on a predicted-taken direct target
// (the front end loses a cycle computing it).
func (p *Processor) predictControl(t *thread, in *isa.Instruction) (taken bool, target uint64, bubble bool) {
	switch in.Class {
	case isa.Branch:
		taken = p.pred.Predict(t.id, in.PC)
	case isa.Jump, isa.Call, isa.Return:
		taken = true
	}
	if in.Class == isa.Call {
		p.ras[t.id].Push(in.FallThrough())
	}
	if in.Class == isa.Return {
		if tgt, ok := p.ras[t.id].Pop(); ok {
			return true, tgt, false
		}
		// Empty RAS: no target to predict; fall through (mispredicts).
		return true, in.FallThrough(), false
	}
	if !taken {
		return false, 0, false
	}
	if tgt, ok := p.btb.Lookup(in.PC); ok {
		return true, tgt, false
	}
	// BTB miss: decode supplies the (correct, static) direct target one
	// cycle later.
	return true, in.Target, true
}
