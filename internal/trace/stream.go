package trace

import (
	"hdsmt/internal/isa"
)

// maxCallDepth bounds the stream's simulated call stack; deeper calls simply
// drop the oldest frame, like a RAS would.
const maxCallDepth = 64

// Stream walks a Program resolving each dynamic instruction's branch outcome
// and effective address. Outcomes are pure functions of
// (seed, static site, execution count), so a Stream is fully deterministic
// and two Streams with equal seeds yield identical sequences.
type Stream struct {
	prog *Program
	seed uint64
	// base is the thread's data address-space base. Different threads run
	// in disjoint address spaces (distinct programs on an SMT), which the
	// shared caches see as conflicting reference streams.
	base uint64

	cur       int32 // dense index of the next instruction; -1 = escaped
	seq       uint64
	counts    []uint64 // per-static-instruction execution counts
	callStack []frame
	stackBase uint64
}

// frame is one simulated call-stack entry: the return address and, when it
// is inside the program, its pre-resolved instruction index (-1 outside).
type frame struct {
	pc   uint64
	next int32
}

// NewStream returns a deterministic dynamic-instruction source over prog.
// seed individualizes branch outcomes and address streams; base offsets all
// data addresses (give each thread a distinct base).
func NewStream(prog *Program, seed, base uint64) *Stream {
	s := new(Stream)
	s.Restart(prog, seed, base)
	return s
}

// Restart makes s the stream NewStream(prog, seed, base) returns, reusing
// its storage.
func (s *Stream) Restart(prog *Program, seed, base uint64) {
	counts := s.counts
	if cap(counts) >= prog.Len() {
		counts = counts[:prog.Len()]
		clear(counts)
	} else {
		counts = make([]uint64, prog.Len())
	}
	*s = Stream{
		prog:      prog,
		seed:      seed,
		base:      base,
		cur:       0, // Blocks[0].Insts[0] has dense index 0
		counts:    counts,
		callStack: s.callStack[:0],
		stackBase: base + 0x7fff0000,
	}
}

// Program returns the program this stream walks.
func (s *Stream) Program() *Program { return s.prog }

// Seq returns the number of instructions generated so far.
func (s *Stream) Seq() uint64 { return s.seq }

// NextInto generates the next correct-path instruction directly into dst,
// sparing the caller a ~100-byte struct copy on the simulator's hottest
// producer path. A Stream never runs out. The walk follows the successor
// indices finalize resolved — no per-instruction dictionary lookup.
func (s *Stream) NextInto(dst *isa.Instruction) {
	if s.cur < 0 {
		// Control flow can only reach addresses inside the program (the
		// builder closes the CFG); reaching here means corrupted state.
		panic("trace: stream escaped the program")
	}
	st := s.prog.insts[s.cur]
	count := s.counts[st.Index]
	s.counts[st.Index]++

	MaterializeInto(dst, st, s.seed, s.base, count)
	dst.Seq = s.seq
	s.seq++

	next := s.prog.fallIdx[s.cur]
	// Resolve stack-dependent control flow.
	switch st.Class {
	case isa.Call:
		if len(s.callStack) == maxCallDepth {
			copy(s.callStack, s.callStack[1:])
			s.callStack = s.callStack[:maxCallDepth-1]
		}
		s.callStack = append(s.callStack, frame{pc: dst.FallThrough(), next: next})
		next = s.prog.targetIdx[s.cur]
	case isa.Return:
		if n := len(s.callStack); n > 0 {
			f := s.callStack[n-1]
			s.callStack = s.callStack[:n-1]
			dst.Target = f.pc
			next = f.next
		} else {
			// Underflow (stream started inside a function or deep calls
			// were dropped): restart the main body.
			dst.Target = s.prog.Blocks[0].Start()
			next = 0
		}
	default:
		if dst.Taken {
			next = s.prog.targetIdx[s.cur]
		}
	}
	s.cur = next
}

// ControlFunc observes a control-flow instruction the stream advances
// past: its class, PC, resolved target (0 for a not-taken branch) and
// direction. Advance calls it so a simulator can keep branch structures
// warm through a skip without materializing the stream.
type ControlFunc func(class isa.Class, pc, target uint64, taken bool)

// MemFunc observes a load or store the stream advances past: its class,
// its sequence number and its effective address — the values NextInto
// would have written to Class, Seq and EffAddr. Advance calls it so a
// profiler can drive a cache model without materializing the stream.
type MemFunc func(class isa.Class, seq, addr uint64)

// Advance skips n instructions: execution counts, the call stack and
// control flow advance exactly as n NextInto calls would, but no
// instruction is materialized — no register fields, no struct writes. With
// mem nil, memory instructions skip their address hash entirely, so this
// runs several times faster than NextInto. It is the unwarmed
// fast-forward path of sampled execution and, with mem set, the HEUR
// profile pass; a Stream that Advances past a region yields the identical
// sequence afterwards. When ctl is non-nil it receives every control-flow
// instruction in order; when mem is non-nil it receives every load and
// store in order.
func (s *Stream) Advance(n uint64, ctl ControlFunc, mem MemFunc) {
	for ; n > 0; n-- {
		if s.cur < 0 {
			panic("trace: stream escaped the program")
		}
		st := s.prog.insts[s.cur]
		count := s.counts[st.Index]
		s.counts[st.Index]++
		s.seq++

		next := s.prog.fallIdx[s.cur]
		switch st.Class {
		case isa.Branch:
			var taken bool
			if st.Kind == BranchLoop {
				taken = count%uint64(st.Period) != uint64(st.Period-1)
			} else {
				taken = Mix3Float(s.seed, st.PC, count) < st.TakenProb
			}
			var target uint64
			if taken {
				next = s.prog.targetIdx[s.cur]
				target = st.Target
			}
			if ctl != nil {
				ctl(isa.Branch, st.PC, target, taken)
			}
		case isa.Jump:
			next = s.prog.targetIdx[s.cur]
			if ctl != nil {
				ctl(isa.Jump, st.PC, st.Target, true)
			}
		case isa.Call:
			if len(s.callStack) == maxCallDepth {
				copy(s.callStack, s.callStack[1:])
				s.callStack = s.callStack[:maxCallDepth-1]
			}
			s.callStack = append(s.callStack, frame{pc: st.PC + isa.InstrBytes, next: next})
			next = s.prog.targetIdx[s.cur]
			if ctl != nil {
				ctl(isa.Call, st.PC, st.Target, true)
			}
		case isa.Return:
			target := s.prog.Blocks[0].Start()
			if n := len(s.callStack); n > 0 {
				f := s.callStack[n-1]
				s.callStack = s.callStack[:n-1]
				target = f.pc
				next = f.next
			} else {
				next = 0
			}
			if ctl != nil {
				ctl(isa.Return, st.PC, target, true)
			}
		case isa.Load, isa.Store:
			if mem != nil {
				mem(st.Class, s.seq-1, memAddr(st, s.seed, s.base, count))
			}
		}
		s.cur = next
	}
}

// Materialize mints a dynamic instance of st: it resolves the branch
// direction and effective address for the count-th execution of the static
// instruction. The fetch engine reuses it to synthesize wrong-path
// instructions (return targets excepted: those need the stream's call
// stack, so wrong-path returns get target 0 and resolve as mispredictions).
func Materialize(st *StaticInst, seed, base, count uint64) isa.Instruction {
	var in isa.Instruction
	MaterializeInto(&in, st, seed, base, count)
	return in
}

// MaterializeInto is Materialize writing into caller-provided (possibly
// recycled) storage: every field is assigned or explicitly cleared, with
// no intermediate struct copy — this runs once per fetched instruction.
func MaterializeInto(in *isa.Instruction, st *StaticInst, seed, base, count uint64) {
	in.PC = st.PC
	in.Class = st.Class
	in.Dest = st.Dest
	in.Src1 = st.Src1
	in.Src2 = st.Src2
	in.Target = 0
	in.Taken = false
	in.MemSize = 0
	in.EffAddr = 0
	in.Seq = 0
	in.WrongPath = false
	switch st.Class {
	case isa.Branch:
		in.Target = st.Target
		switch st.Kind {
		case BranchLoop:
			in.Taken = count%uint64(st.Period) != uint64(st.Period-1)
		default: // biased or random
			in.Taken = Mix3Float(seed, st.PC, count) < st.TakenProb
		}
	case isa.Jump, isa.Call:
		in.Taken = true
		in.Target = st.Target
	case isa.Return:
		in.Taken = true
		// Target filled by the stream from its call stack.
	case isa.Load, isa.Store:
		in.MemSize = 8
		in.EffAddr = memAddr(st, seed, base, count)
	}
}

// memAddr computes the effective address of the count-th execution of a
// static memory instruction.
func memAddr(st *StaticInst, seed, base, count uint64) uint64 {
	var off uint64
	switch st.Pattern {
	case MemStride:
		off = (uint64(st.Stride) * count) % st.Region
	case MemStack:
		off = Mix3(seed, st.PC, count) % stackRegionBytes
	default: // MemRandom
		off = Mix3(seed, st.PC, count) % st.Region
	}
	addr := base + st.MemBase + off
	return addr &^ 7 // 8-byte aligned accesses
}
