package pipeline

import (
	"fmt"

	"hdsmt/internal/config"
	"hdsmt/internal/funit"
	"hdsmt/internal/isa"
	"hdsmt/internal/queue"
)

// IssueQueue is one private issue queue (IQ, FQ or LQ): a bounded set of
// dispatched uops awaiting operands and a functional unit. The queue keeps
// only what the optimized issue path reads — its occupancy, which bounds
// dispatch, and its ready list, the dispatched entries whose operands are
// all available and whose front-end delay has elapsed, ordered by
// DispatchSeq (dispatch order within one queue). The core's wakeup logic
// moves entries onto the ready list exactly when their last dependency
// resolves, so the per-cycle issue scan touches only issuable work. The
// entries themselves live in their threads' reorder buffers, which is
// where the core's reference selection polls them.
type IssueQueue struct {
	kind isa.Queue
	n    int // occupied entries
	cap  int
	// ready holds the issuable entries in ascending DispatchSeq; the live
	// window is ready[readyHead:]. The head index makes the two dominant
	// operations O(1): the oldest entry issuing (pop-front) and a young
	// entry waking (append at the tail).
	ready     []*UOp
	readyHead int
	stats     IQStats
}

// IQStats aggregates queue pressure.
type IQStats struct {
	Dispatches uint64
	FullStalls uint64
}

// NewIssueQueue builds a queue with the given capacity.
func NewIssueQueue(kind isa.Queue, capacity int) *IssueQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("pipeline: %v capacity %d must be positive", kind, capacity))
	}
	return &IssueQueue{
		kind:  kind,
		ready: make([]*UOp, 0, capacity),
		cap:   capacity,
	}
}

// Kind returns which of IQ/FQ/LQ this queue is.
func (q *IssueQueue) Kind() isa.Queue { return q.kind }

// Len returns the number of occupied entries.
func (q *IssueQueue) Len() int { return q.n }

// Cap returns the capacity.
func (q *IssueQueue) Cap() int { return q.cap }

// Full reports whether no entry is free.
func (q *IssueQueue) Full() bool { return q.n >= q.cap }

// Stats returns accumulated statistics.
func (q *IssueQueue) Stats() IQStats { return q.stats }

// Add occupies an entry for u; it reports false (recording a stall) when
// the queue is full.
func (q *IssueQueue) Add(u *UOp) bool {
	if q.Full() {
		q.stats.FullStalls++
		return false
	}
	q.n++
	q.stats.Dispatches++
	return true
}

// Remove frees u's entry (u issued or was squashed), dropping its
// ready-list entry, if any. It panics when the queue is empty.
func (q *IssueQueue) Remove(u *UOp) {
	if q.n == 0 {
		panic(fmt.Sprintf("pipeline: removing uop pc=%#x from empty %v", u.Inst.PC, q.kind))
	}
	q.n--
	if u.InReady {
		q.RemoveReady(u)
	}
}

// PushReady links u into the ready list, keeping it sorted by DispatchSeq
// (dispatch order within a queue), so selection order matches an
// oldest-first scan of the queue's entries. It is a no-op when u is
// already linked. The common case — u younger than every current entry —
// is an append.
func (q *IssueQueue) PushReady(u *UOp) {
	if u.InReady {
		return
	}
	u.InReady = true
	if q.readyHead == len(q.ready) {
		q.ready = q.ready[:0]
		q.readyHead = 0
	} else if len(q.ready) == cap(q.ready) && q.readyHead > 0 {
		// Slide the live window back to the front before appending, so
		// the backing array stays bounded by the peak live count instead
		// of growing with every pop-front while the list is non-empty.
		n := copy(q.ready, q.ready[q.readyHead:])
		q.ready = q.ready[:n]
		q.readyHead = 0
	}
	if n := len(q.ready); n == q.readyHead || q.ready[n-1].DispatchSeq < u.DispatchSeq {
		q.ready = append(q.ready, u)
		return
	}
	live := q.ready[q.readyHead:]
	lo, hi := 0, len(live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].DispatchSeq > u.DispatchSeq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.ready = append(q.ready, nil)
	live = q.ready[q.readyHead:]
	copy(live[lo+1:], live[lo:])
	live[lo] = u
}

// RemoveReady unlinks u from the ready list. The common case — the oldest
// entry, just issued — is a head-index bump.
func (q *IssueQueue) RemoveReady(u *UOp) {
	if !u.InReady {
		return
	}
	u.InReady = false
	if q.ready[q.readyHead] == u {
		q.readyHead++
		if q.readyHead == len(q.ready) {
			q.ready = q.ready[:0]
			q.readyHead = 0
		}
		return
	}
	live := q.ready[q.readyHead:]
	lo, hi := 0, len(live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].DispatchSeq >= u.DispatchSeq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(live) || live[lo] != u {
		panic(fmt.Sprintf("pipeline: ready-list entry pc=%#x missing from %v", u.Inst.PC, q.kind))
	}
	copy(live[lo:], live[lo+1:])
	q.ready = q.ready[:len(q.ready)-1]
}

// Ready returns the ready list, oldest-first. Callers must not mutate it;
// collect removals during iteration and apply them after.
func (q *IssueQueue) Ready() []*UOp { return q.ready[q.readyHead:] }

// ReadyLen returns the number of issuable entries.
func (q *IssueQueue) ReadyLen() int { return len(q.ready) - q.readyHead }

// Clear drops all entries and statistics, as a new queue has none.
func (q *IssueQueue) Clear() {
	q.ready = q.ready[:0]
	q.n, q.readyHead = 0, 0
	q.stats = IQStats{}
}

// Backend is one pipeline's private back end: decoupling buffer, issue
// queues and functional units. The pipeline's width bounds dispatch, issue
// and commit per cycle; ThreadsPerCycle bounds how many distinct threads may
// dispatch in one cycle (Fig. 2a "Max Threads/cycle").
type Backend struct {
	Model config.Model
	Index int

	// FetchBuf is the decoupling buffer between the shared fetch engine
	// and this pipeline (paper Fig. 1). The monolithic M8 has no such
	// buffer architecturally; it gets a fetch-width latch instead.
	FetchBuf *queue.Deque[*UOp]

	IQ, FQ, LQ *IssueQueue
	// Queues lists the issue queues in selection order (IQ, LQ, FQ),
	// prebuilt so the per-cycle issue scan does not rebuild the set.
	Queues [3]*IssueQueue
	Units  *funit.Pool

	// Threads holds the global IDs of threads mapped to this pipeline.
	Threads []int
}

// NewBackend builds the back end for one pipeline. fetchWidth sizes the
// monolithic latch when the model declares no decoupling buffer.
func NewBackend(index int, m config.Model, fetchWidth int) *Backend {
	return RenewBackend(nil, index, m, fetchWidth)
}

// RenewBackend returns the back end NewBackend(index, m, fetchWidth)
// builds. When old was built for the same model and fetch width, it is
// old itself, reset to that fresh state with no thread mapped; otherwise
// old is left alone and a new back end is built.
func RenewBackend(old *Backend, index int, m config.Model, fetchWidth int) *Backend {
	bufSize := m.FetchBuf
	if bufSize == 0 {
		bufSize = fetchWidth
	}
	if old != nil && old.Model == m && old.FetchBuf.Cap() == bufSize {
		old.Index = index
		old.Reset()
		old.Threads = old.Threads[:0]
		return old
	}
	b := &Backend{
		Model:    m,
		Index:    index,
		FetchBuf: queue.New[*UOp](bufSize),
		IQ:       NewIssueQueue(isa.IQ, m.IQ),
		FQ:       NewIssueQueue(isa.FQ, m.FQ),
		LQ:       NewIssueQueue(isa.LQ, m.LQ),
		Units:    funit.NewPool(m.IntUnits, m.FPUnits, m.LdStUnits),
	}
	b.Queues = [3]*IssueQueue{b.IQ, b.LQ, b.FQ}
	return b
}

// QueueFor returns this backend's queue for instruction class c.
func (b *Backend) QueueFor(c isa.Class) *IssueQueue {
	switch isa.QueueFor(c) {
	case isa.LQ:
		return b.LQ
	case isa.FQ:
		return b.FQ
	default:
		return b.IQ
	}
}

// HasContextFor reports whether the pipeline has a free hardware context
// given the number of threads already assigned.
func (b *Backend) HasContextFor() bool {
	return len(b.Threads) < b.Model.Contexts
}

// AssignThread maps a thread to this pipeline; it panics when no context is
// free (mapping policies must respect capacities).
func (b *Backend) AssignThread(tid int) {
	if !b.HasContextFor() {
		panic(fmt.Sprintf("pipeline %d (%s): no free context for thread %d",
			b.Index, b.Model.Name, tid))
	}
	b.Threads = append(b.Threads, tid)
}

// Reset clears all per-run state and statistics but keeps the thread
// mapping.
func (b *Backend) Reset() {
	b.FetchBuf.Clear()
	b.IQ.Clear()
	b.FQ.Clear()
	b.LQ.Clear()
	b.Units.Reset()
}
