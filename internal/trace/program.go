package trace

import (
	"fmt"
	"sort"

	"hdsmt/internal/isa"
)

// BranchKind classifies the outcome pattern of a static conditional branch.
// The mixture of kinds is what makes one synthetic benchmark more
// predictable than another.
type BranchKind uint8

const (
	// BranchBiased branches go one way with high probability (if-guards).
	BranchBiased BranchKind = iota
	// BranchLoop branches are taken period-1 times then fall through once
	// (loop back-edges): perfectly predictable by history predictors.
	BranchLoop
	// BranchRandom branches are data-dependent coin flips with probability
	// TakenProb: the hard case for any predictor.
	BranchRandom
)

// String names the branch kind.
func (k BranchKind) String() string {
	switch k {
	case BranchBiased:
		return "biased"
	case BranchLoop:
		return "loop"
	case BranchRandom:
		return "random"
	}
	return fmt.Sprintf("branchkind(%d)", uint8(k))
}

// MemPattern classifies the address stream of a static load or store.
type MemPattern uint8

const (
	// MemStride walks an array with a fixed stride inside a region.
	MemStride MemPattern = iota
	// MemRandom touches uniformly random lines inside a region
	// (hash tables, pointer chasing): the cache-hostile case.
	MemRandom
	// MemStack re-touches a tiny hot region (spills, locals): near-perfect
	// locality.
	MemStack
)

// String names the memory pattern.
func (p MemPattern) String() string {
	switch p {
	case MemStride:
		return "stride"
	case MemRandom:
		return "random"
	case MemStack:
		return "stack"
	}
	return fmt.Sprintf("mempattern(%d)", uint8(p))
}

// StaticInst is one static instruction in a synthetic program: the unit the
// basic-block dictionary stores. Dynamic instances are minted from it by a
// Stream (correct path) or synthesized directly by fetch (wrong path).
type StaticInst struct {
	PC    uint64
	Index int // dense index within the program, assigned at build time
	Class isa.Class
	Dest  isa.Reg
	Src1  isa.Reg
	Src2  isa.Reg

	// Control flow.
	Target uint64     // static target (conditional/jump/call); 0 for returns
	Kind   BranchKind // outcome pattern for conditional branches
	// TakenProb is the taken probability for biased/random kinds.
	TakenProb float64
	// Period is the iteration count for loop-kind branches.
	Period uint32

	// Memory behaviour.
	Pattern MemPattern
	Region  uint64 // region size in bytes the address stream stays within
	Stride  uint32 // stride in bytes for MemStride
	MemBase uint64 // region base offset within the thread's address space
}

// Block is a basic block: a straight-line run of instructions; only the last
// may be control flow.
type Block struct {
	Insts []StaticInst
}

// Start returns the address of the block's first instruction.
func (b *Block) Start() uint64 { return b.Insts[0].PC }

// Program is a complete synthetic benchmark binary: its blocks, its
// instruction dictionary, and the function entry points used for calls.
// It is immutable after construction and safe for concurrent streams.
type Program struct {
	Name   string
	Blocks []*Block
	// Entries are indexes into Blocks of callable function bodies.
	Entries []int

	minPC  uint64
	maxPC  uint64
	nInsts int
	// atPC is the instruction dictionary: the dense index of the
	// instruction at minPC + k*InstrBytes, or -1 where no instruction
	// sits. BuildProgram lays programs out contiguously, so the table is
	// nInsts long.
	atPC []int32
	// classes has bit c set when some instruction is of class c.
	classes uint32

	// Successor links by dense instruction index, resolved once at build
	// time so the correct-path stream follows indices instead of
	// re-looking PCs up in the dictionary on every dynamic instruction.
	// -1 marks a successor address outside the program (the stream then
	// reports escape exactly as a failed dictionary lookup would).
	insts     []*StaticInst // dense by StaticInst.Index
	fallIdx   []int32       // index of the instruction at PC + InstrBytes
	targetIdx []int32       // index of the instruction at Target
}

// finalize builds the dictionary index; called once by the builder.
func (p *Program) finalize() {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	p.insts = make([]*StaticInst, 0, n)
	first := true
	for _, b := range p.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			in.Index = p.nInsts
			if first || in.PC < p.minPC {
				p.minPC = in.PC
			}
			if first || in.PC > p.maxPC {
				p.maxPC = in.PC
			}
			first = false
			p.nInsts++
			p.insts = append(p.insts, in)
			p.classes |= 1 << in.Class
		}
	}
	if p.nInsts > 0 {
		p.atPC = make([]int32, (p.maxPC-p.minPC)/isa.InstrBytes+1)
		for k := range p.atPC {
			p.atPC[k] = -1
		}
		for _, in := range p.insts {
			if (in.PC-p.minPC)%isa.InstrBytes == 0 {
				p.atPC[(in.PC-p.minPC)/isa.InstrBytes] = int32(in.Index)
			}
		}
	}
	idxAt := func(pc uint64) int32 {
		if in, ok := p.StaticAt(pc); ok {
			return int32(in.Index)
		}
		return -1
	}
	p.fallIdx = make([]int32, p.nInsts)
	p.targetIdx = make([]int32, p.nInsts)
	for i, in := range p.insts {
		p.fallIdx[i] = idxAt(in.PC + isa.InstrBytes)
		p.targetIdx[i] = -1
		if in.Class.IsControl() && in.Class != isa.Return {
			p.targetIdx[i] = idxAt(in.Target)
		}
	}
}

// StaticAt returns the static instruction at pc, if any. Fetch uses this as
// the paper's "basic block dictionary" to follow wrong paths: the dictionary
// holds "information of all static instructions" (paper §4).
func (p *Program) StaticAt(pc uint64) (*StaticInst, bool) {
	off := pc - p.minPC // wraps above the table for pc < minPC
	if off%isa.InstrBytes != 0 || off/isa.InstrBytes >= uint64(len(p.atPC)) {
		return nil, false
	}
	k := p.atPC[off/isa.InstrBytes]
	if k < 0 {
		return nil, false
	}
	return p.insts[k], true
}

// Has reports whether some instruction of the program is of class c.
func (p *Program) Has(c isa.Class) bool { return p.classes&(1<<c) != 0 }

// Len returns the number of static instructions.
func (p *Program) Len() int { return p.nInsts }

// PCBounds returns the lowest and highest instruction addresses.
func (p *Program) PCBounds() (lo, hi uint64) { return p.minPC, p.maxPC }

// BlockAt returns the basic block starting at pc, if any.
func (p *Program) BlockAt(pc uint64) (*Block, bool) {
	// Blocks are laid out in ascending address order; binary search.
	if i, ok := p.blockIndex(pc); ok {
		return p.Blocks[i], true
	}
	return nil, false
}

// Validate checks structural invariants: contiguous 4-byte layout inside
// blocks, control flow only at block ends, all static targets resolving to
// block starts, no Nop, and no block the stream can reach from block 0
// without being able to return there. The core's issue selection relies on
// the Nop rule: every other class needs its issue queue's one
// functional-unit kind, so a ready-list scan may stop at the first entry
// refused a unit. Tests and testing/quick properties use it; BuildProgram,
// whose repair loop already ends on an empty trapped(), checks only the
// structure.
func (p *Program) Validate() error {
	if err := p.validateStructure(); err != nil {
		return err
	}
	if trapped := p.trapped(); len(trapped) > 0 {
		return fmt.Errorf("trace: program %q: block %d is reachable from block 0 but cannot return to it",
			p.Name, trapped[0])
	}
	return nil
}

// validateStructure is Validate without the trap check.
func (p *Program) validateStructure() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("trace: program %q has no blocks", p.Name)
	}
	starts := make(map[uint64]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		if len(b.Insts) == 0 {
			return fmt.Errorf("trace: program %q has an empty block", p.Name)
		}
		starts[b.Start()] = true
	}
	for bi, b := range p.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if i > 0 && in.PC != b.Insts[i-1].PC+isa.InstrBytes {
				return fmt.Errorf("trace: block %d not contiguous at %#x", bi, in.PC)
			}
			if in.Class == isa.Nop {
				return fmt.Errorf("trace: %#x is a nop, which programs may not hold", in.PC)
			}
			if in.Class.IsControl() && i != len(b.Insts)-1 {
				return fmt.Errorf("trace: control instruction %#x not at block end", in.PC)
			}
			if in.Class.IsControl() && in.Class != isa.Return && !starts[in.Target] {
				return fmt.Errorf("trace: %#x targets %#x which is not a block start", in.PC, in.Target)
			}
		}
	}
	return nil
}

// successors returns the indexes of the blocks control can pass to from
// the end of block bi, -1 for none. A call counts as returning to the
// block after it; a return counts as the underflow restart at block 0. A
// biased or random branch contributes only the directions its probability
// allows, and a loop branch both.
func (p *Program) successors(bi int) [2]int {
	b := p.Blocks[bi]
	term := &b.Insts[len(b.Insts)-1]
	taken, falls := false, true
	switch term.Class {
	case isa.Jump:
		taken, falls = true, false
	case isa.Return:
		return [2]int{0, -1}
	case isa.Branch:
		if term.Kind == BranchLoop {
			taken = term.Period > 1
		} else {
			taken, falls = term.TakenProb > 0, term.TakenProb < 1
		}
	}
	next := [2]int{-1, -1}
	if taken {
		if t, ok := p.blockIndex(term.Target); ok {
			next[0] = t
		}
	}
	if falls && bi+1 < len(p.Blocks) {
		next[1] = bi + 1
	}
	return next
}

// blockIndex returns the index of the block starting at pc.
func (p *Program) blockIndex(pc uint64) (int, bool) {
	i := sort.Search(len(p.Blocks), func(i int) bool {
		return p.Blocks[i].Start() >= pc
	})
	return i, i < len(p.Blocks) && p.Blocks[i].Start() == pc
}

// trapped returns, in ascending order, the blocks the correct-path stream
// can reach from block 0 but never leave for block 0 again: a stream that
// enters one stays among them for the rest of the run. Block 0 of a
// well-formed program is reachable from every block reachable from it.
func (p *Program) trapped() []int {
	n := len(p.Blocks)
	succ := make([][2]int, n)
	// Predecessor lists, packed: block v's are pred[first[v]:first[v+1]].
	first := make([]int, n+2)
	for bi := range succ {
		succ[bi] = p.successors(bi)
		for _, v := range succ[bi] {
			if v >= 0 {
				first[v+2]++
			}
		}
	}
	for v := 2; v <= n+1; v++ {
		first[v] += first[v-1]
	}
	pred := make([]int, first[n+1])
	for bi, ss := range succ {
		for _, v := range ss {
			if v >= 0 {
				pred[first[v+1]] = bi
				first[v+1]++
			}
		}
	}
	// reach marks the blocks next reaches from block 0, transitively.
	work := make([]int, 0, n)
	reach := func(seen []bool, next func(b int) []int) {
		seen[0] = true
		work = append(work[:0], 0)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, v := range next(b) {
				if v >= 0 && !seen[v] {
					seen[v] = true
					work = append(work, v)
				}
			}
		}
	}
	seen := make([]bool, 2*n)
	fromEntry, toEntry := seen[:n], seen[n:]
	reach(fromEntry, func(b int) []int { return succ[b][:] })
	reach(toEntry, func(b int) []int { return pred[first[b]:first[b+1]] })
	var out []int
	for bi := range p.Blocks {
		if fromEntry[bi] && !toEntry[bi] {
			out = append(out, bi)
		}
	}
	return out
}
