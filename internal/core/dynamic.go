package core

import (
	"fmt"

	"hdsmt/internal/pipeline"
)

// Dynamic thread-to-pipeline remapping implements the paper's future-work
// proposal (§7): "in future hdSMT implementations, this mapping should
// probably be made dynamically in order to better adapt to the dynamic
// changes in program behaviour during execution."
//
// At a fixed cycle interval the processor hands the remapper each thread's
// *observed* data-cache miss count over the last interval (replacing §2.1's
// offline profile) plus the current mapping; if the remapper moves a thread,
// the thread is migrated: its in-flight instructions are squashed, its
// rename state rolls back, and fetch restarts on the new pipeline after a
// drain penalty — the hardware cost a real migration would pay.

// Remapper decides thread placements from observed behaviour. misses[i] is
// thread i's L1D load misses during the last interval; current[i] its
// pipeline. It returns the desired mapping (it may return current
// unchanged). The returned mapping must respect pipeline capacities.
type Remapper func(misses []uint64, current []int) []int

// migrationDrainCycles is the fetch hiatus a migrated thread pays: the
// pipeline must drain and the new pipeline's front end refill.
const migrationDrainCycles = 8

// WithDynamicMapping installs a remapper invoked every interval cycles.
func WithDynamicMapping(interval uint64, fn Remapper) Option {
	if interval == 0 || fn == nil {
		panic("core: dynamic mapping needs a positive interval and a remapper")
	}
	return func(pr *Processor) {
		pr.remapInterval = interval
		pr.remapper = fn
	}
}

// Migrations returns how many thread migrations the dynamic policy
// performed.
func (p *Processor) Migrations() uint64 { return p.migrations }

// maybeRemap runs the remapper at interval boundaries.
func (p *Processor) maybeRemap() {
	if p.remapInterval == 0 || p.cycle%p.remapInterval != 0 {
		return
	}
	misses := p.remapMisses[:0]
	current := p.remapPipes[:0]
	for _, t := range p.threads {
		misses = append(misses, t.stats.LoadMisses-t.remapMissBase)
		t.remapMissBase = t.stats.LoadMisses
		current = append(current, t.pipe)
	}
	p.remapMisses, p.remapPipes = misses, current
	want := p.remapper(misses, current)
	if len(want) != len(p.threads) {
		panic(fmt.Sprintf("core: remapper returned %d placements for %d threads", len(want), len(p.threads)))
	}
	// Validate capacities before committing to any move.
	used := make([]int, len(p.pipes))
	for _, pipe := range want {
		if pipe < 0 || pipe >= len(p.pipes) {
			panic(fmt.Sprintf("core: remapper placed a thread on pipeline %d of %d", pipe, len(p.pipes)))
		}
		used[pipe]++
	}
	for i, n := range used {
		if n > p.pipes[i].Model.Contexts {
			panic(fmt.Sprintf("core: remapper overflowed pipeline %d (%d threads, %d contexts)",
				i, n, p.pipes[i].Model.Contexts))
		}
	}
	// Two phases: detach every mover first, then attach. Applying moves
	// one at a time could transiently overflow a pipeline during a swap
	// even though the final mapping is valid.
	var movers []*thread
	for i, t := range p.threads {
		if want[i] != t.pipe && !t.finished {
			movers = append(movers, t)
		}
	}
	for _, t := range movers {
		p.detach(t)
	}
	for _, t := range movers {
		p.attach(t, want[t.id])
	}
}

// detach squashes everything thread t has in flight and frees its hardware
// context (t.pipe becomes invalid until attach).
func (p *Processor) detach(t *thread) {
	p.squashAllOf(t)
	old := p.pipes[t.pipe]
	for i, id := range old.Threads {
		if id == t.id {
			old.Threads = append(old.Threads[:i], old.Threads[i+1:]...)
			break
		}
	}
	t.pipe = -1
}

// attach installs thread t on pipeline newPipe and restarts fetch at the
// oldest uncommitted correct-path instruction.
func (p *Processor) attach(t *thread, newPipe int) {
	p.pipes[newPipe].AssignThread(t.id)
	t.pipe = newPipe
	t.rewindTo(t.committed)
	t.pc = t.nextCorrect().PC
	t.wrongPath = false
	t.wrongPathPC = false
	t.flushStalled = nil
	t.lineBuf = 0
	t.fetchReadyAt = p.cycle + migrationDrainCycles
	p.migrations++
	t.stats.Migrations++
}

// squashAllOf removes every in-flight uop of t (ROB and fetch buffer).
func (p *Processor) squashAllOf(t *thread) {
	for {
		u, ok := t.rob.Tail()
		if !ok {
			break
		}
		t.rob.PopTail()
		p.squashUOp(t, u)
	}
	t.headBusy = false
	b := p.pipes[t.pipe]
	b.FetchBuf.Do(func(i int, u *pipeline.UOp) bool {
		if u.Thread == t.id && u.Stage == pipeline.StageFetched {
			p.squashUOp(t, u)
		}
		return true
	})
	if t.icount != 0 || t.inflightLoads != 0 {
		panic(fmt.Sprintf("core: thread %d accounting nonzero after full squash (icount=%d loads=%d)",
			t.id, t.icount, t.inflightLoads))
	}
}
