package core

import (
	"fmt"

	"hdsmt/internal/isa"
	"hdsmt/internal/pipeline"
)

// The reference stepper is the naive oracle the event-driven cycle loop of
// cycle.go is checked against. It runs the same stages as step with three
// differences: it steps every cycle (no fastForward), its commit peeks
// every thread's ROB head (no doneCount/doneUops/headBusy gates), and its
// issue selection polls every issue-queue entry against the register file
// instead of reading the ready lists. WithReferenceStepping selects it;
// the equivalence tests compare full runs under both steppers.

// stepper returns the cycle stepper of the processor's stepping mode. The
// run loops pick it once and call it every cycle, so no production stage
// tests the mode.
func (p *Processor) stepper() func(*Processor) {
	if p.reference {
		return (*Processor).stepReference
	}
	return (*Processor).step
}

// stepReference advances the processor one cycle on the reference path.
func (p *Processor) stepReference() {
	p.cycle++
	p.work.Stepped++
	p.stats.Cycles = p.cycle
	p.commitAll()
	p.writebackStage()
	p.issueScanAll()
	p.dispatchStage()
	p.fetchStage()
}

// commitAll is commitStage without its gates: each pipeline's threads, in
// the same rotation, retire until the bandwidth runs out or a head has not
// completed.
func (p *Processor) commitAll() {
	for _, b := range p.pipes {
		n := len(b.Threads)
		bw := b.Model.Width
		for k := 0; k < n && bw > 0; k++ {
			t := p.threads[b.Threads[(int(p.cycle%uint64(n))+k)%n]]
			bw = p.retire(t, bw)
		}
	}
}

// issueScanAll is the reference issue selection: poll every queue entry,
// oldest-first, checking operand readiness against the register file. It
// must stay behaviourally identical to issueStage; the equivalence tests
// compare full runs under both. The issue timers still fire and the ready
// lists are still kept, so readyCount stays exact on this path too.
func (p *Processor) issueScanAll() {
	c := p.cycle
	p.fireIssueTimers(c)
	extraRF := uint64(p.cfg.Params.RegAccessLatency - 1)
	for _, b := range p.pipes {
		budget := b.Model.Width
		p.queueEntries(b)
		for _, q := range b.Queues {
			if budget == 0 {
				break
			}
			budget = p.pollQueue(b, q, p.entryScratch[q.Kind()], c, extraRF, budget)
		}
	}
}

// queueEntries sorts the entries of b's issue queues into
// p.entryScratch, one slice per queue kind, each in dispatch order. A
// queue's entries are the dispatched uops of its class in the reorder
// buffers of b's threads: every dispatched uop sits in both its queue and
// its thread's ROB until it issues or is squashed, and a thread never
// leaves its pipeline. Each
// ROB holds its thread's uops in dispatch order, so one merge of b's ROBs
// by DispatchSeq visits every queue's entries in the queue's own order.
// Issuing from one queue changes no other queue's entries, so the sort
// made before the first queue is polled holds for all three.
func (p *Processor) queueEntries(b *pipeline.Backend) {
	for k := range p.entryScratch {
		p.entryScratch[k] = p.entryScratch[k][:0]
	}
	if b.IQ.Len()+b.LQ.Len()+b.FQ.Len() == 0 {
		return
	}
	// next[k] is the ROB position the merge has reached in b.Threads[k].
	next := p.pollScratch[:0]
	for _, tid := range b.Threads {
		next = append(next, p.mergeStart(p.threads[tid]))
	}
	p.pollScratch = next
	for u := p.nextEntry(b, next); u != nil; u = p.nextEntry(b, next) {
		kind := isa.QueueFor(u.Inst.Class)
		p.entryScratch[kind] = append(p.entryScratch[kind], u)
	}
}

// pollQueue offers q's entries, oldest-first, to issue until budget runs
// out, and returns the budget left. entries are q's entries in dispatch
// order, as queueEntries sorted them.
func (p *Processor) pollQueue(b *pipeline.Backend, q *pipeline.IssueQueue, entries []*pipeline.UOp, c, extraRF uint64, budget int) int {
	if len(entries) < q.Len() {
		panic(fmt.Sprintf("core: %v of pipeline %d holds %d entries its threads' ROBs do not", q.Kind(), b.Index, q.Len()-len(entries)))
	}
	for _, u := range entries[:q.Len()] {
		if budget == 0 {
			break
		}
		p.work.ReadyVisits++
		if u.IssueAt > c || !u.Ready(p.rf) || !b.Units.TryIssue(u.Inst.Class, c) {
			continue
		}
		p.issueOne(u, c, extraRF)
		if u.InReady {
			p.readyCount--
		}
		q.Remove(u)
		budget--
	}
	return budget
}

// nextEntry returns the oldest dispatched uop the merge has not yet
// passed, or nil when none is left, and moves the merge past it. next[k]
// is the merge's position in the ROB of b.Threads[k], starting at 0.
func (p *Processor) nextEntry(b *pipeline.Backend, next []int) *pipeline.UOp {
	var u *pipeline.UOp
	pick := -1
	for k, tid := range b.Threads {
		rob := p.threads[tid].rob
		for ; next[k] < rob.Len(); next[k]++ {
			if v := rob.At(next[k]); v.Stage == pipeline.StageDispatched {
				if u == nil || v.DispatchSeq < u.DispatchSeq {
					u, pick = v, k
				}
				break
			}
		}
	}
	if u != nil {
		next[pick]++
	}
	return u
}

// mergeStart returns the ROB position of t's oldest dispatched uop
// (rob.Len() when it has none), so the merge skips the issued and
// completed uops ahead of it. A ROB holds its uops in dispatch order, so
// the uops dispatched before t.mergeFloor are a prefix, skipped by binary
// search. The floor then moves to the uop found, or past every uop
// dispatched so far: the uops it passes stay out of the dispatched stage,
// a squash only removes uops and new ones dispatch above it.
func (p *Processor) mergeStart(t *thread) int {
	rob := t.rob
	lo, hi := 0, rob.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rob.At(mid).DispatchSeq < t.mergeFloor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < rob.Len(); lo++ {
		if u := rob.At(lo); u.Stage == pipeline.StageDispatched {
			t.mergeFloor = u.DispatchSeq
			return lo
		}
	}
	t.mergeFloor = p.dispatchSeq
	return lo
}
