package pipeline

import (
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/isa"
	"hdsmt/internal/regfile"
)

func TestStageString(t *testing.T) {
	names := map[Stage]string{
		StageFetched:    "fetched",
		StageDispatched: "dispatched",
		StageIssued:     "issued",
		StageDone:       "done",
		StageCommitted:  "committed",
		StageSquashed:   "squashed",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Stage(99).String() == "" {
		t.Error("unknown stage empty")
	}
}

func TestUOpReady(t *testing.T) {
	rf := regfile.New(4)
	p0, _ := rf.Alloc()
	p1, _ := rf.Alloc()
	u := &UOp{Src: [2]int{p0, p1}}
	if u.Ready(rf) {
		t.Error("not ready with unproduced sources")
	}
	rf.SetReady(p0)
	if u.Ready(rf) {
		t.Error("half ready is not ready")
	}
	rf.SetReady(p1)
	if !u.Ready(rf) {
		t.Error("both produced: ready")
	}
	free := &UOp{Src: [2]int{regfile.None, regfile.None}}
	if !free.Ready(rf) {
		t.Error("architectural sources are always ready")
	}
}

func TestReadSourcesIdempotent(t *testing.T) {
	rf := regfile.New(2)
	p0, _ := rf.Alloc()
	rf.AddReader(p0)
	u := &UOp{Src: [2]int{p0, regfile.None}}
	u.ReadSources(rf)
	u.ReadSources(rf) // second call must not underflow the reader count
	rf.Release(p0)
	if rf.FreeCount() != 2 {
		t.Error("register not recycled after read + release")
	}
}

// makeWriter constructs a renamed uop writing arch register r.
func makeWriter(t *testing.T, m *RenameMap, rf *regfile.File, r isa.Reg) *UOp {
	t.Helper()
	p, ok := rf.Alloc()
	if !ok {
		t.Fatal("regfile exhausted")
	}
	u := &UOp{Inst: isa.Instruction{Dest: r}, DestPhys: p,
		Src: [2]int{regfile.None, regfile.None}}
	m.Rename(u)
	return u
}

func TestRenameLookup(t *testing.T) {
	var m RenameMap
	rf := regfile.New(8)
	r := isa.IntReg(5)
	if m.Lookup(r) != regfile.None {
		t.Error("unwritten register must map to architectural file")
	}
	u := makeWriter(t, &m, rf, r)
	if m.Lookup(r) != u.DestPhys {
		t.Error("lookup must return newest writer's register")
	}
	if m.Lookup(isa.RegNone) != regfile.None || m.Lookup(isa.RegZero) != regfile.None {
		t.Error("none/zero never map")
	}
}

func TestRenameChainCommitOrder(t *testing.T) {
	var m RenameMap
	rf := regfile.New(8)
	r := isa.IntReg(3)
	w1 := makeWriter(t, &m, rf, r)
	w2 := makeWriter(t, &m, rf, r)

	// Commit w1 (older): map still points at w2; w2's rollback target
	// becomes the architectural file.
	m.Commit(w1)
	rf.Release(w1.DestPhys)
	if m.Lookup(r) != w2.DestPhys {
		t.Error("commit of older writer must not disturb newest mapping")
	}
	if w2.PrevWriter != nil {
		t.Error("younger writer's rollback target must become architectural")
	}

	// Squash w2: map returns to architectural.
	m.Squash(w2)
	rf.Release(w2.DestPhys)
	if m.Lookup(r) != regfile.None {
		t.Error("squash after older commit must restore architectural mapping")
	}
	if rf.FreeCount() != 8 {
		t.Errorf("free = %d, want 8", rf.FreeCount())
	}
}

func TestRenameChainSquashRollback(t *testing.T) {
	var m RenameMap
	rf := regfile.New(8)
	r := isa.IntReg(7)
	w1 := makeWriter(t, &m, rf, r)
	w2 := makeWriter(t, &m, rf, r)
	w3 := makeWriter(t, &m, rf, r)

	// Squash youngest-first: w3 then w2.
	m.Squash(w3)
	rf.Release(w3.DestPhys)
	if m.Lookup(r) != w2.DestPhys {
		t.Error("rollback to w2 failed")
	}
	m.Squash(w2)
	rf.Release(w2.DestPhys)
	if m.Lookup(r) != w1.DestPhys {
		t.Error("rollback to w1 failed")
	}
	// w1 can still commit normally.
	m.Commit(w1)
	rf.Release(w1.DestPhys)
	if m.Lookup(r) != regfile.None {
		t.Error("commit of sole writer must clear the mapping")
	}
}

func TestSquashOutOfOrderPanics(t *testing.T) {
	var m RenameMap
	rf := regfile.New(8)
	r := isa.IntReg(2)
	w1 := makeWriter(t, &m, rf, r)
	makeWriter(t, &m, rf, r) // w2 is newest
	defer func() {
		if recover() == nil {
			t.Error("squashing a non-youngest writer must panic")
		}
	}()
	m.Squash(w1)
}

func TestRenameMapReset(t *testing.T) {
	var m RenameMap
	rf := regfile.New(4)
	makeWriter(t, &m, rf, isa.IntReg(1))
	m.Reset()
	if m.Lookup(isa.IntReg(1)) != regfile.None {
		t.Error("reset incomplete")
	}
}

func TestIssueQueueAddRemove(t *testing.T) {
	q := NewIssueQueue(isa.IQ, 2)
	u1, u2, u3 := &UOp{}, &UOp{}, &UOp{}
	if !q.Add(u1) || !q.Add(u2) {
		t.Fatal("adds failed")
	}
	if q.Add(u3) {
		t.Error("add to full queue must fail")
	}
	if q.Stats().FullStalls != 1 || q.Stats().Dispatches != 2 {
		t.Errorf("stats = %+v", q.Stats())
	}
	q.Remove(u1)
	if q.Len() != 1 || q.Full() {
		t.Error("remove bookkeeping wrong")
	}
	if !q.Add(u3) {
		t.Error("space after remove")
	}
	if q.Len() != 2 || !q.Full() {
		t.Errorf("len %d after re-add, want 2 and full", q.Len())
	}
	q.Remove(u2)
	q.Remove(u3)
	if q.Len() != 0 {
		t.Errorf("len %d after removing every entry", q.Len())
	}
}

func TestIssueQueueRemoveMissingPanics(t *testing.T) {
	q := NewIssueQueue(isa.LQ, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	q.Remove(&UOp{})
}

func TestNewIssueQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewIssueQueue(isa.IQ, 0)
}

func TestBackendConstruction(t *testing.T) {
	b := NewBackend(0, config.M4, 8)
	if b.IQ.Cap() != 32 || b.FQ.Cap() != 32 || b.LQ.Cap() != 32 {
		t.Error("M4 queue capacities wrong")
	}
	if b.FetchBuf.Cap() != 32 {
		t.Error("M4 decoupling buffer must be 32")
	}
	if b.Units.Count(isa.UnitInt) != 3 || b.Units.Count(isa.UnitFP) != 2 || b.Units.Count(isa.UnitLdSt) != 2 {
		t.Error("M4 unit counts wrong")
	}
}

func TestBackendMonolithicLatch(t *testing.T) {
	b := NewBackend(0, config.M8, 8)
	if b.FetchBuf.Cap() != 8 {
		t.Errorf("monolithic latch = %d, want fetch width 8", b.FetchBuf.Cap())
	}
}

func TestBackendQueueFor(t *testing.T) {
	b := NewBackend(0, config.M2, 8)
	if b.QueueFor(isa.Load) != b.LQ || b.QueueFor(isa.Store) != b.LQ {
		t.Error("memory classes route to LQ")
	}
	if b.QueueFor(isa.FPMul) != b.FQ {
		t.Error("FP classes route to FQ")
	}
	if b.QueueFor(isa.IntALU) != b.IQ || b.QueueFor(isa.Branch) != b.IQ {
		t.Error("integer classes route to IQ")
	}
}

func TestBackendContexts(t *testing.T) {
	b := NewBackend(0, config.M4, 8) // 2 contexts
	if !b.HasContextFor() {
		t.Fatal("fresh backend has free contexts")
	}
	b.AssignThread(0)
	b.AssignThread(1)
	if b.HasContextFor() {
		t.Error("M4 holds two contexts only")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-assignment must panic")
		}
	}()
	b.AssignThread(2)
}

func TestBackendReset(t *testing.T) {
	b := NewBackend(0, config.M2, 8)
	b.AssignThread(3)
	b.FetchBuf.PushTail(&UOp{})
	b.IQ.Add(&UOp{})
	b.Reset()
	if b.FetchBuf.Len() != 0 || b.IQ.Len() != 0 {
		t.Error("reset incomplete")
	}
	if len(b.Threads) != 1 {
		t.Error("reset must keep the thread mapping")
	}
}

// TestRenewBackend: a used back end of the requested shape comes back as
// NewBackend would build it, with no thread mapped; one of another shape
// is left alone.
func TestRenewBackend(t *testing.T) {
	b := NewBackend(0, config.M4, 8)
	b.AssignThread(3)
	b.FetchBuf.PushTail(&UOp{})
	u := &UOp{}
	b.LQ.Add(u)
	b.LQ.PushReady(u)
	b.FQ.Add(&UOp{})
	// Occupy every integer unit.
	for b.Units.TryIssue(isa.IntDiv, 5) {
	}

	if got := RenewBackend(b, 2, config.M2, 8); got == b {
		t.Fatal("RenewBackend reused an M4 back end for an M2")
	}
	got := RenewBackend(b, 1, config.M4, 8)
	if got != b {
		t.Fatal("RenewBackend built a new back end instead of reusing one of the same shape")
	}
	want := NewBackend(1, config.M4, 8)
	if got.Index != want.Index || len(got.Threads) != 0 || got.FetchBuf.Len() != 0 || got.FetchBuf.Cap() != want.FetchBuf.Cap() {
		t.Errorf("renewed back end: index %d, %d threads, fetch buffer %d/%d", got.Index, len(got.Threads), got.FetchBuf.Len(), got.FetchBuf.Cap())
	}
	for i, q := range got.Queues {
		if q.Len() != 0 || q.ReadyLen() != 0 || q.Stats() != want.Queues[i].Stats() || q.Cap() != want.Queues[i].Cap() {
			t.Errorf("renewed %v queue: len %d, ready %d, stats %+v, cap %d", q.Kind(), q.Len(), q.ReadyLen(), q.Stats(), q.Cap())
		}
	}
	if got.Units.Stats() != want.Units.Stats() || !got.Units.TryIssue(isa.IntDiv, 6) {
		t.Error("renewed back end kept functional-unit state")
	}
}
