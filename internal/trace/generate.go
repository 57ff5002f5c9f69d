package trace

import (
	"fmt"

	"hdsmt/internal/isa"
)

// GenParams controls synthetic-program construction. Package bench supplies
// one calibrated GenParams per SPECint2000 benchmark; tests construct ad-hoc
// ones. All fractions are in [0,1].
type GenParams struct {
	Name string
	Seed uint64

	// Structure.
	NumBlocks int    // basic blocks in the main body
	NumFuncs  int    // single-block callable functions appended after the body
	BlockMin  int    // min non-terminator instructions per block
	BlockMax  int    // max non-terminator instructions per block
	CodeBase  uint64 // address of the first instruction

	// Instruction mix (fractions of non-terminator instructions; the
	// remainder is integer ALU work).
	LoadFrac  float64
	StoreFrac float64
	MulFrac   float64
	DivFrac   float64
	FPFrac    float64

	// Dependences: source operands are drawn from the destinations of the
	// previous DepWindow instructions. Small windows create serial chains
	// (low ILP); large windows create independent work (high ILP).
	DepWindow int

	// Block terminators.
	JumpFrac float64 // unconditional jumps
	CallFrac float64 // calls to a function block
	// The rest are conditional branches, split into kinds:
	LoopFrac   float64 // loop back-edges (periodic, predictable)
	BiasedFrac float64 // heavily biased guards
	// remainder: random (hard-to-predict) branches.
	LoopPeriodMin   int
	LoopPeriodMax   int
	BiasProb        float64 // taken probability of biased branches
	RandomTakenProb float64 // taken probability of random branches

	// Memory behaviour.
	WorkingSet uint64  // region size for stride/random accesses, bytes
	StrideFrac float64 // array walks
	StackFrac  float64 // hot-stack accesses; remainder: random in WorkingSet
	StrideMin  int     // bytes
	StrideMax  int     // bytes
}

// check validates parameters, applying defaults for zero fields.
func (g *GenParams) check() error {
	if g.NumBlocks <= 0 {
		return fmt.Errorf("trace: %s: NumBlocks must be positive", g.Name)
	}
	if g.BlockMin <= 0 || g.BlockMax < g.BlockMin {
		return fmt.Errorf("trace: %s: bad block length range [%d,%d]", g.Name, g.BlockMin, g.BlockMax)
	}
	if g.DepWindow <= 0 {
		return fmt.Errorf("trace: %s: DepWindow must be positive", g.Name)
	}
	if g.WorkingSet == 0 {
		return fmt.Errorf("trace: %s: WorkingSet must be positive", g.Name)
	}
	if g.LoopPeriodMin <= 1 || g.LoopPeriodMax < g.LoopPeriodMin {
		return fmt.Errorf("trace: %s: bad loop period range [%d,%d]", g.Name, g.LoopPeriodMin, g.LoopPeriodMax)
	}
	if g.StrideMin <= 0 || g.StrideMax < g.StrideMin {
		return fmt.Errorf("trace: %s: bad stride range [%d,%d]", g.Name, g.StrideMin, g.StrideMax)
	}
	sum := g.LoadFrac + g.StoreFrac + g.MulFrac + g.DivFrac + g.FPFrac
	if sum > 1 {
		return fmt.Errorf("trace: %s: instruction mix sums to %.2f > 1", g.Name, sum)
	}
	if g.JumpFrac+g.CallFrac > 1 {
		return fmt.Errorf("trace: %s: terminator mix exceeds 1", g.Name)
	}
	if g.LoopFrac+g.BiasedFrac > 1 {
		return fmt.Errorf("trace: %s: branch kind mix exceeds 1", g.Name)
	}
	return nil
}

// stackRegionBytes is the size of the hot region MemStack accesses touch.
const stackRegionBytes = 512

// BuildProgram deterministically constructs the synthetic program described
// by g. The same parameters always yield the identical program.
func BuildProgram(g GenParams) (*Program, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	rng := NewRand(Mix(g.Seed, 0xb10c5))

	totalBlocks := g.NumBlocks + g.NumFuncs
	lengths := make([]int, totalBlocks)
	for i := range lengths {
		lengths[i] = g.BlockMin + rng.Intn(g.BlockMax-g.BlockMin+1)
	}
	// Lay out block start addresses (every block gains one terminator).
	starts := make([]uint64, totalBlocks)
	pc := g.CodeBase
	for i, n := range lengths {
		starts[i] = pc
		pc += uint64(n+1) * isa.InstrBytes
	}
	// Every length is known now: the blocks and their instructions each
	// take one allocation, and each block's slice is capped at its own
	// length so no append can spill into its neighbour.
	p := &Program{Name: g.Name, Blocks: make([]*Block, totalBlocks)}
	if g.NumFuncs > 0 {
		p.Entries = make([]int, 0, g.NumFuncs)
	}
	blocks := make([]Block, totalBlocks)
	insts := make([]StaticInst, (pc-g.CodeBase)/isa.InstrBytes)

	// Rolling window of recent destination registers for dependence wiring.
	recentInt := newRegWindow(g.DepWindow)
	recentFP := newRegWindow(g.DepWindow)
	intDest, fpDest := 0, 0
	nextIntDest := func() isa.Reg {
		intDest = (intDest + 1) % (isa.NumIntRegs - 2) // avoid r31 (zero) and r30 (stack-ish)
		return isa.IntReg(intDest)
	}
	nextFPDest := func() isa.Reg {
		fpDest = (fpDest + 1) % isa.NumFPRegs
		return isa.FPReg(fpDest)
	}

	bodyInst := func(pc uint64) StaticInst {
		x := rng.Float64()
		var class isa.Class
		switch {
		case x < g.LoadFrac:
			class = isa.Load
		case x < g.LoadFrac+g.StoreFrac:
			class = isa.Store
		case x < g.LoadFrac+g.StoreFrac+g.MulFrac:
			class = isa.IntMul
		case x < g.LoadFrac+g.StoreFrac+g.MulFrac+g.DivFrac:
			class = isa.IntDiv
		case x < g.LoadFrac+g.StoreFrac+g.MulFrac+g.DivFrac+g.FPFrac:
			switch rng.Intn(8) {
			case 0:
				class = isa.FPDiv
			case 1, 2:
				class = isa.FPMul
			default:
				class = isa.FPAdd
			}
		default:
			class = isa.IntALU
		}
		in := StaticInst{PC: pc, Class: class}
		if class.IsFP() {
			in.Src1 = recentFP.pick(rng)
			in.Src2 = recentFP.pick(rng)
			in.Dest = nextFPDest()
			recentFP.push(in.Dest)
			return in
		}
		in.Src1 = recentInt.pick(rng)
		if class != isa.Load { // loads have one register source (the base)
			in.Src2 = recentInt.pick(rng)
		} else {
			in.Src2 = isa.RegNone
		}
		switch class {
		case isa.Store:
			in.Dest = isa.RegNone // stores produce no register value
		default:
			in.Dest = nextIntDest()
			recentInt.push(in.Dest)
		}
		if class.IsMem() {
			y := rng.Float64()
			switch {
			case y < g.StrideFrac+g.StackFrac && y >= g.StrideFrac:
				// Hot-stack accesses stay inside a single small area near
				// the bottom of the data space.
				in.Pattern = MemStack
				in.Region = stackRegionBytes
				in.MemBase = uint64(rng.Intn(8)) * stackRegionBytes
			default:
				// Stride and random accesses share the benchmark's working
				// set: each static instruction touches a sub-region, and
				// the union of sub-regions never exceeds WorkingSet, so
				// the parameter genuinely bounds the data footprint.
				region := g.WorkingSet / 4
				if region < 4096 {
					region = 4096
				}
				if region > g.WorkingSet {
					region = g.WorkingSet
				}
				in.Region = region
				if span := g.WorkingSet - region; span > 0 {
					in.MemBase = (uint64(rng.Intn(int(span/64+1))) * 64)
				}
				if y < g.StrideFrac {
					in.Pattern = MemStride
					in.Stride = uint32(g.StrideMin + rng.Intn(g.StrideMax-g.StrideMin+1))
				} else {
					in.Pattern = MemRandom
				}
			}
		}
		return in
	}

	for bi := 0; bi < totalBlocks; bi++ {
		blk := &blocks[bi]
		insts, blk.Insts = insts[lengths[bi]+1:], insts[:0:lengths[bi]+1]
		pc := starts[bi]
		for k := 0; k < lengths[bi]; k++ {
			blk.Insts = append(blk.Insts, bodyInst(pc))
			pc += isa.InstrBytes
		}
		term := StaticInst{PC: pc, Src1: recentInt.pick(rng), Src2: isa.RegNone, Dest: isa.RegNone}
		isFunc := bi >= g.NumBlocks
		switch {
		case isFunc:
			// Function bodies end with an indirect return.
			term.Class = isa.Return
		case bi == g.NumBlocks-1:
			// Close the main body with a jump back to the top so the
			// stream never falls off the end into function bodies.
			term.Class = isa.Jump
			term.Target = starts[0]
		default:
			x := rng.Float64()
			switch {
			case x < g.JumpFrac:
				term.Class = isa.Jump
				term.Target = starts[rng.Intn(g.NumBlocks)]
			case x < g.JumpFrac+g.CallFrac && g.NumFuncs > 0:
				term.Class = isa.Call
				term.Target = starts[g.NumBlocks+rng.Intn(g.NumFuncs)]
			default:
				term.Class = isa.Branch
				y := rng.Float64()
				switch {
				case y < g.LoopFrac:
					term.Kind = BranchLoop
					term.Period = uint32(g.LoopPeriodMin + rng.Intn(g.LoopPeriodMax-g.LoopPeriodMin+1))
					term.Target = starts[bi] // back-edge to own block head
				case y < g.LoopFrac+g.BiasedFrac:
					term.Kind = BranchBiased
					term.TakenProb = g.BiasProb
					term.Target = starts[rng.Intn(g.NumBlocks)]
				default:
					term.Kind = BranchRandom
					term.TakenProb = g.RandomTakenProb
					term.Target = starts[rng.Intn(g.NumBlocks)]
				}
			}
		}
		blk.Insts = append(blk.Insts, term)
		p.Blocks[bi] = blk
		if isFunc {
			p.Entries = append(p.Entries, bi)
		}
	}

	// A jump can close a set of blocks that the stream, once inside, never
	// leaves for block 0 again. The highest-numbered block of such a set
	// cannot fall through (its successor would be in the set), so its
	// terminator — a jump, or a branch that is always taken — closes the
	// set: retarget it to the next block and look again. Each repair turns
	// a backward target into a forward one, so this ends; programs without
	// a trap are unchanged.
	for trapped := p.trapped(); len(trapped) > 0; trapped = p.trapped() {
		last := trapped[len(trapped)-1]
		insts := p.Blocks[last].Insts
		insts[len(insts)-1].Target = starts[last+1]
	}

	p.finalize()
	if err := p.validateStructure(); err != nil {
		return nil, err
	}
	return p, nil
}

// regWindow keeps the destinations of the last w register-writing
// instructions so that sources can be wired to recent producers.
type regWindow struct {
	regs []isa.Reg
	next int
	full bool
}

func newRegWindow(w int) *regWindow {
	return &regWindow{regs: make([]isa.Reg, w)}
}

func (rw *regWindow) push(r isa.Reg) {
	rw.regs[rw.next] = r
	rw.next++
	if rw.next == len(rw.regs) {
		rw.next = 0
		rw.full = true
	}
}

func (rw *regWindow) pick(rng *Rand) isa.Reg {
	n := rw.next
	if rw.full {
		n = len(rw.regs)
	}
	if n == 0 {
		return isa.RegNone
	}
	return rw.regs[rng.Intn(n)]
}
