// Package pipeline defines the in-flight instruction record (UOp) and the
// per-pipeline back-end state of an hdSMT processor: the fetch decoupling
// buffer, the private IQ/FQ/LQ issue queues, and the private functional
// units (paper §2: "Each pipeline also has got its own private instruction
// queues, renaming map tables and functional units").
package pipeline

import (
	"fmt"

	"hdsmt/internal/isa"
	"hdsmt/internal/regfile"
)

// Stage is a UOp's lifecycle position.
type Stage uint8

// Lifecycle stages. Squashed is terminal for wrong-path and flushed
// instructions; Committed is terminal for architecturally retired ones.
const (
	StageFetched    Stage = iota // in a fetch buffer, pre-rename
	StageDispatched              // renamed, waiting in an issue queue
	StageIssued                  // executing on a functional unit
	StageDone                    // result produced, waiting to commit
	StageCommitted
	StageSquashed
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageFetched:
		return "fetched"
	case StageDispatched:
		return "dispatched"
	case StageIssued:
		return "issued"
	case StageDone:
		return "done"
	case StageCommitted:
		return "committed"
	case StageSquashed:
		return "squashed"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// UOp is one dynamic instruction in flight, from fetch to commit or squash.
type UOp struct {
	Inst   isa.Instruction
	Thread int // global thread id
	Pipe   int // pipeline the owning thread is mapped to

	// FetchSeq orders all fetched instructions of a thread, wrong path
	// included (the trace Seq only covers the correct path).
	FetchSeq   uint64
	FetchCycle uint64

	// Front-end prediction state, filled at fetch. Mispredict is known at
	// fetch time in a trace-driven simulator; the squash still happens at
	// resolve time.
	PredTaken  bool
	PredTarget uint64
	Mispredict bool

	// Rename state.
	DestPhys int    // regfile.None when the instruction writes no register
	Src      [2]int // source physical registers, regfile.None if ready-at-rename
	SrcRead  [2]bool

	// Writer chain per (thread, architectural register); see Rename.
	PrevWriter *UOp
	NextWriter *UOp

	Stage     Stage
	IssueAt   uint64 // earliest issue cycle (front-end depth + RF read)
	DoneCycle uint64 // result-ready cycle, valid once issued

	// FlushMiss marks a load the FLUSH mechanism has acted on.
	FlushMiss bool

	// Wakeup state, maintained by the core's event-driven issue scheduler
	// while the uop is dispatched. DispatchSeq is a processor-global stamp
	// that orders ready-list selection identically to queue (dispatch)
	// order, and the reference selection's merge of its pipeline's
	// reorder buffers likewise. WaitCount counts source operands not yet
	// produced; Waiting[i] records that a waiter-list entry exists for
	// Src[i]; TimerQueued records a pending issue-timer ring entry (only
	// uops whose operands resolve before IssueAt need one); InReady
	// records membership in the queue's ready list.
	DispatchSeq uint64
	WaitCount   int8
	Waiting     [2]bool
	TimerQueued bool
	InReady     bool
}

// ResetFor reinitializes a recycled record for a fresh fetch of the given
// thread/pipe at the given fetch order and cycle. Every field except Inst
// is reset (the caller assigns Inst immediately after, so zeroing it first
// would be wasted work on the simulator's hottest allocation path).
func (u *UOp) ResetFor(thread, pipe int, fetchSeq, fetchCycle uint64) {
	u.Thread = thread
	u.Pipe = pipe
	u.FetchSeq = fetchSeq
	u.FetchCycle = fetchCycle
	u.PredTaken = false
	u.PredTarget = 0
	u.Mispredict = false
	u.DestPhys = regfile.None
	u.Src = [2]int{regfile.None, regfile.None}
	u.SrcRead = [2]bool{}
	u.PrevWriter = nil
	u.NextWriter = nil
	u.Stage = StageFetched
	u.IssueAt = 0
	u.DoneCycle = 0
	u.FlushMiss = false
	u.DispatchSeq = 0
	u.WaitCount = 0
	u.Waiting = [2]bool{}
	u.TimerQueued = false
	u.InReady = false
}

// Ready reports whether both sources are available in rf.
func (u *UOp) Ready(rf *regfile.File) bool {
	return rf.Ready(u.Src[0]) && rf.Ready(u.Src[1])
}

// ReadSources drops the reader references this uop holds (called once, when
// the uop reads the register file at issue, or when it is squashed).
func (u *UOp) ReadSources(rf *regfile.File) {
	for i := range u.Src {
		if !u.SrcRead[i] {
			rf.DropReader(u.Src[i])
			u.SrcRead[i] = true
		}
	}
}

// RenameMap is one thread's architectural-to-physical mapping: the youngest
// in-flight writer per architectural register, or nil when the committed
// (architectural) value is current. Each pipeline owns the map tables of the
// threads mapped to it.
type RenameMap struct {
	writer [isa.NumArchRegs]*UOp
}

// Reset clears all mappings.
func (m *RenameMap) Reset() {
	for i := range m.writer {
		m.writer[i] = nil
	}
}

// Lookup returns the physical register currently holding arch register r,
// or regfile.None when the architectural file has the committed value.
func (m *RenameMap) Lookup(r isa.Reg) int {
	if r == isa.RegNone || r.IsZero() {
		return regfile.None
	}
	if w := m.writer[r]; w != nil {
		return w.DestPhys
	}
	return regfile.None
}

// Rename records u as the newest writer of its destination register,
// linking it into the per-register writer chain used for commit-time
// release and squash-time rollback. The caller has already allocated
// u.DestPhys.
func (m *RenameMap) Rename(u *UOp) {
	r := u.Inst.Dest
	prev := m.writer[r]
	u.PrevWriter = prev
	if prev != nil {
		prev.NextWriter = u
	}
	m.writer[r] = u
}

// Commit finalizes u's mapping at retirement: the value becomes
// architectural, so any younger writer's rollback target becomes "the
// architectural file" and the physical register can be released by the
// caller.
func (m *RenameMap) Commit(u *UOp) {
	r := u.Inst.Dest
	if m.writer[r] == u {
		m.writer[r] = nil
	} else if u.NextWriter != nil {
		u.NextWriter.PrevWriter = nil
	}
	u.NextWriter = nil
	u.PrevWriter = nil
}

// Squash rolls back u's mapping. Squash must proceed youngest-first within
// a thread, so u is the current youngest writer of its register.
func (m *RenameMap) Squash(u *UOp) {
	r := u.Inst.Dest
	if m.writer[r] != u {
		panic(fmt.Sprintf("pipeline: squash of %v which is not the youngest writer of %v", u.Inst.PC, r))
	}
	m.writer[r] = u.PrevWriter
	if u.PrevWriter != nil {
		u.PrevWriter.NextWriter = nil
	}
	u.PrevWriter = nil
	u.NextWriter = nil
}
