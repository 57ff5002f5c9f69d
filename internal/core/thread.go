package core

import (
	"fmt"

	"hdsmt/internal/isa"
	"hdsmt/internal/pipeline"
	"hdsmt/internal/queue"
	"hdsmt/internal/trace"
)

// ThreadSpec describes one software thread to run: its program, the seed
// individualizing its dynamic behaviour, and its data address-space base.
type ThreadSpec struct {
	Name     string
	Program  *trace.Program
	Seed     uint64
	DataBase uint64
}

// thread is the per-hardware-context state.
type thread struct {
	id   int
	spec ThreadSpec
	pipe int // pipeline index this thread is mapped to

	stream *trace.Stream

	// Replay buffer: correct-path instructions fetched but not yet
	// committed. FLUSH squashes re-fetch from here instead of re-reading
	// the (forward-only) trace stream.
	buf     []isa.Instruction
	bufBase uint64 // trace Seq of buf[0]
	cursor  int    // index into buf of the next instruction to fetch

	// Fetch state.
	pc           uint64
	wrongPath    bool   // fetching past an unresolved mispredict
	wrongPathPC  bool   // wrong-path fetch escaped the program: fetch idles
	wpCount      uint64 // wrong-path materialization counter
	fetchSeq     uint64 // next fetch-order number (wrong path included)
	fetchReadyAt uint64 // I-cache miss / redirect stall
	// lineBuf is the fetch unit's single-entry fill buffer: the line
	// address of the last I-cache miss. When the miss resolves, fetch
	// consumes the buffered line directly, guaranteeing forward progress
	// even when co-running threads conflict in the I-cache.
	lineBuf      uint64
	flushStalled *pipeline.UOp // the L2-missing load FLUSH stalled us on

	// Back-end state.
	rob       *queue.Deque[*pipeline.UOp]
	renameMap pipeline.RenameMap

	// Policy inputs and accounting.
	icount        int // instructions in pre-issue stages
	inflightLoads int // loads fetched but not completed
	doneUops      int // completed-but-uncommitted uops in this ROB
	committed     uint64
	target        uint64 // finish when committed reaches this (0 = never)
	finished      bool
	// headBusy records that the ROB head has not completed (or the ROB is
	// empty): set by a failed head peek, cleared when the head completes
	// or squashAllOf empties the ROB.
	headBusy bool
	// mergeFloor is where the reference selection's merge starts in the
	// ROB: every uop dispatched before it (a lower DispatchSeq) had left
	// the dispatched stage when the merge last looked, and none returns
	// to it. See Processor.mergeStart.
	mergeFloor uint64

	stats ThreadStats
}

// ThreadStats aggregates one thread's activity over a run.
type ThreadStats struct {
	Committed    uint64
	Fetched      uint64 // correct-path + wrong-path instructions fetched
	WrongPath    uint64 // wrong-path instructions fetched
	Squashed     uint64
	Mispredicts  uint64 // resolved mispredicted correct-path branches
	Flushes      uint64 // FLUSH-mechanism activations
	LoadMisses   uint64 // L1D misses among this thread's issued loads
	L2LoadMisses uint64
}

// reset makes t a new thread id running spec, with a robSize-entry ROB and
// a replay buffer of capacity replayCap, its steady-state bound (so a run
// never regrows it). It reuses t's ROB when its size matches, its replay
// buffer when large enough and its stream's storage; the zero thread
// reuses nothing.
func (t *thread) reset(id int, spec ThreadSpec, robSize, replayCap int) {
	rob, buf, stream := t.rob, t.buf, t.stream
	if rob != nil && rob.Cap() == robSize {
		rob.Clear()
	} else {
		rob = queue.New[*pipeline.UOp](robSize)
	}
	if cap(buf) < replayCap {
		buf = make([]isa.Instruction, 0, replayCap)
	}
	if stream != nil {
		stream.Restart(spec.Program, spec.Seed, spec.DataBase)
	} else {
		stream = trace.NewStream(spec.Program, spec.Seed, spec.DataBase)
	}
	*t = thread{
		id:     id,
		spec:   spec,
		pipe:   -1,
		stream: stream,
		buf:    buf[:0],
		pc:     spec.Program.Blocks[0].Start(),
		rob:    rob,
	}
}

// nextCorrect returns the next correct-path instruction without consuming
// it; advanceCorrect consumes it. The pair lets fetch inspect the head.
func (t *thread) nextCorrect() *isa.Instruction {
	if t.cursor == len(t.buf) {
		// Extend in place and generate directly into the new slot (one
		// instruction copy instead of three on the replay-fill path).
		n := len(t.buf)
		if n == cap(t.buf) {
			t.buf = append(t.buf, isa.Instruction{})
		} else {
			t.buf = t.buf[:n+1]
		}
		t.stream.NextInto(&t.buf[n])
	}
	return &t.buf[t.cursor]
}

func (t *thread) advanceCorrect() {
	if t.cursor >= len(t.buf) {
		panic("core: advancing past the replay buffer")
	}
	t.cursor++
}

// rewindTo repositions the fetch cursor so the next correct-path instruction
// delivered has trace sequence number seq (FLUSH re-fetch).
func (t *thread) rewindTo(seq uint64) {
	if seq < t.bufBase || seq > t.bufBase+uint64(len(t.buf)) {
		panic(fmt.Sprintf("core: rewind to seq %d outside replay buffer [%d,%d]",
			seq, t.bufBase, t.bufBase+uint64(len(t.buf))))
	}
	t.cursor = int(seq - t.bufBase)
}

// trimBatch is how many committed instructions the replay buffer keeps
// before retireTrim shifts them out. The batch keeps the buffer (ROB depth
// + fetch buffer + batch) small, while the amortized shift stays well
// under one entry copy per commit.
const trimBatch = 1024

// retireTrim drops committed instructions from the replay buffer. Trimming
// is batched so the slice shift cost amortizes to O(1) per instruction.
func (t *thread) retireTrim(committedSeq uint64) {
	keepFrom := committedSeq + 1
	if keepFrom < t.bufBase+trimBatch {
		return
	}
	n := int(keepFrom - t.bufBase)
	if n > t.cursor {
		panic("core: trimming uncommitted replay entries past the cursor")
	}
	t.buf = append(t.buf[:0], t.buf[n:]...)
	t.bufBase = keepFrom
	t.cursor -= n
}

// fetchable reports whether the fetch engine may pick this thread at cycle.
func (t *thread) fetchable(cycle uint64) bool {
	return !t.finished &&
		t.flushStalled == nil &&
		!t.wrongPathPC &&
		t.fetchReadyAt <= cycle
}
