package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"hdsmt/internal/isa"
)

// testParams returns a small valid GenParams for tests.
func testParams(seed uint64) GenParams {
	return GenParams{
		Name:      "test",
		Seed:      seed,
		NumBlocks: 40,
		NumFuncs:  4,
		BlockMin:  3,
		BlockMax:  10,
		CodeBase:  0x120000,

		LoadFrac:  0.25,
		StoreFrac: 0.10,
		MulFrac:   0.03,
		DivFrac:   0.005,
		FPFrac:    0.02,

		DepWindow: 8,

		JumpFrac:        0.08,
		CallFrac:        0.05,
		LoopFrac:        0.45,
		BiasedFrac:      0.35,
		LoopPeriodMin:   4,
		LoopPeriodMax:   64,
		BiasProb:        0.92,
		RandomTakenProb: 0.5,

		WorkingSet: 1 << 16,
		StrideFrac: 0.6,
		StackFrac:  0.2,
		StrideMin:  8,
		StrideMax:  64,
	}
}

func mustBuild(t testing.TB, g GenParams) *Program {
	t.Helper()
	p, err := BuildProgram(g)
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	return p
}

func TestBuildProgramValid(t *testing.T) {
	p := mustBuild(t, testParams(1))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 {
		t.Fatal("empty program")
	}
	if len(p.Blocks) != 44 {
		t.Errorf("got %d blocks, want 44", len(p.Blocks))
	}
	if len(p.Entries) != 4 {
		t.Errorf("got %d entries, want 4", len(p.Entries))
	}
}

func TestBuildProgramDeterministic(t *testing.T) {
	a := mustBuild(t, testParams(5))
	b := mustBuild(t, testParams(5))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Blocks {
		for j := range a.Blocks[i].Insts {
			if a.Blocks[i].Insts[j] != b.Blocks[i].Insts[j] {
				t.Fatalf("block %d inst %d differs", i, j)
			}
		}
	}
}

func TestBuildProgramSeedsDiffer(t *testing.T) {
	a := mustBuild(t, testParams(1))
	b := mustBuild(t, testParams(2))
	diff := false
	for i := range a.Blocks {
		if i >= len(b.Blocks) {
			diff = true
			break
		}
		for j := range a.Blocks[i].Insts {
			if j < len(b.Blocks[i].Insts) && a.Blocks[i].Insts[j] != b.Blocks[i].Insts[j] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds built identical programs")
	}
}

func TestStaticAt(t *testing.T) {
	p := mustBuild(t, testParams(3))
	for _, b := range p.Blocks {
		for i := range b.Insts {
			got, ok := p.StaticAt(b.Insts[i].PC)
			if !ok || got.PC != b.Insts[i].PC {
				t.Fatalf("StaticAt(%#x) failed", b.Insts[i].PC)
			}
		}
	}
	lo, hi := p.PCBounds()
	if _, ok := p.StaticAt(lo - isa.InstrBytes); ok {
		t.Error("found instruction below program")
	}
	if _, ok := p.StaticAt(hi + isa.InstrBytes); ok {
		t.Error("found instruction above program")
	}
	if lo >= hi {
		t.Error("bounds inverted")
	}
	for _, pc := range []uint64{0, lo + 1, lo + isa.InstrBytes + 2, hi + 1, ^uint64(0)} {
		if _, ok := p.StaticAt(pc); ok {
			t.Errorf("StaticAt(%#x) found an instruction off the program's 4-byte grid", pc)
		}
	}
}

// TestHasClass checks the class summary finalize builds against a scan of
// the program.
func TestHasClass(t *testing.T) {
	p := mustBuild(t, testParams(3))
	var present [isa.NumClasses]bool
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			present[in.Class] = true
		}
	}
	for c := range present {
		if got := p.Has(isa.Class(c)); got != present[c] {
			t.Errorf("Has(%v) = %v, a scan finds %v", isa.Class(c), got, present[c])
		}
	}
}

// TestValidateRejectsNop: the core's issue selection stops scanning a
// ready list at the first entry refused a functional unit, which is exact
// only because every class a queue holds needs a unit — a Nop needs none,
// so programs may not hold one.
func TestValidateRejectsNop(t *testing.T) {
	p := mustBuild(t, testParams(3))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	blocks := make([]*Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = &Block{Insts: append([]StaticInst(nil), b.Insts...)}
	}
	blocks[0].Insts[0].Class = isa.Nop
	withNop := &Program{Name: "nop", Blocks: blocks}
	if err := withNop.Validate(); err == nil {
		t.Error("Validate accepted a program holding a nop")
	}
}

// TestValidateRejectsTrap: a block the stream can enter from block 0 but
// never leave for it again — a self-jump, or a branch that is always
// taken back to its own block — makes every later instruction of the run
// repeat the same few PCs, so Validate refuses it.
func TestValidateRejectsTrap(t *testing.T) {
	const base = 0x1000
	at := func(k int) uint64 { return base + uint64(k)*isa.InstrBytes }
	alu := func(k int) StaticInst { return StaticInst{PC: at(k), Class: isa.IntALU} }
	program := func(closer StaticInst) *Program {
		return &Program{Name: "trap", Blocks: []*Block{
			{Insts: []StaticInst{alu(0), {PC: at(1), Class: isa.Branch, Kind: BranchRandom, TakenProb: 0.5, Target: at(4)}}},
			{Insts: []StaticInst{alu(2), closer}},
			{Insts: []StaticInst{alu(4), {PC: at(5), Class: isa.Jump, Target: at(0)}}},
		}}
	}
	for _, closer := range []StaticInst{
		{PC: at(3), Class: isa.Jump, Target: at(2)},
		{PC: at(3), Class: isa.Branch, Kind: BranchBiased, TakenProb: 1, Target: at(2)},
	} {
		err := program(closer).Validate()
		if err == nil || !strings.Contains(err.Error(), "block 1 ") {
			t.Errorf("Validate with block 1 closed by %+v: %v, want an error naming block 1", closer, err)
		}
	}
	for _, exit := range []StaticInst{
		{PC: at(3), Class: isa.Jump, Target: at(4)},
		{PC: at(3), Class: isa.Branch, Kind: BranchBiased, TakenProb: 0.99, Target: at(2)},
	} {
		if err := program(exit).Validate(); err != nil {
			t.Errorf("Validate with block 1 left by %+v: %v", exit, err)
		}
	}
}

func TestBlockAt(t *testing.T) {
	p := mustBuild(t, testParams(3))
	for _, b := range p.Blocks {
		got, ok := p.BlockAt(b.Start())
		if !ok || got != b {
			t.Fatalf("BlockAt(%#x) failed", b.Start())
		}
	}
	if _, ok := p.BlockAt(p.Blocks[0].Start() + isa.InstrBytes); ok {
		t.Error("BlockAt matched a mid-block address")
	}
}

func TestControlOnlyAtBlockEnd(t *testing.T) {
	p := mustBuild(t, testParams(4))
	for _, b := range p.Blocks {
		for i, in := range b.Insts {
			if in.Class.IsControl() && i != len(b.Insts)-1 {
				t.Fatalf("control %v at position %d of %d", in.Class, i, len(b.Insts))
			}
		}
	}
}

func TestFunctionBlocksEndWithReturn(t *testing.T) {
	p := mustBuild(t, testParams(4))
	for _, e := range p.Entries {
		b := p.Blocks[e]
		last := b.Insts[len(b.Insts)-1]
		if last.Class != isa.Return {
			t.Errorf("entry block %d ends with %v, want return", e, last.Class)
		}
	}
}

func TestStoresHaveNoDest(t *testing.T) {
	p := mustBuild(t, testParams(6))
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			if in.Class == isa.Store && in.Dest != isa.RegNone {
				t.Fatalf("store at %#x has dest %v", in.PC, in.Dest)
			}
			if in.Class == isa.Load && in.Dest == isa.RegNone {
				t.Fatalf("load at %#x has no dest", in.PC)
			}
		}
	}
}

func TestMemInstHaveRegions(t *testing.T) {
	p := mustBuild(t, testParams(7))
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			if in.Class.IsMem() {
				if in.Region == 0 {
					t.Fatalf("mem inst at %#x has zero region", in.PC)
				}
				if in.Pattern == MemStride && in.Stride == 0 {
					t.Fatalf("stride inst at %#x has zero stride", in.PC)
				}
			}
		}
	}
}

func TestGenParamsValidation(t *testing.T) {
	bad := []func(*GenParams){
		func(g *GenParams) { g.NumBlocks = 0 },
		func(g *GenParams) { g.BlockMin = 0 },
		func(g *GenParams) { g.BlockMax = g.BlockMin - 1 },
		func(g *GenParams) { g.DepWindow = 0 },
		func(g *GenParams) { g.WorkingSet = 0 },
		func(g *GenParams) { g.LoopPeriodMin = 1 },
		func(g *GenParams) { g.StrideMin = 0 },
		func(g *GenParams) { g.LoadFrac = 0.9; g.StoreFrac = 0.9 },
		func(g *GenParams) { g.JumpFrac = 0.6; g.CallFrac = 0.6 },
		func(g *GenParams) { g.LoopFrac = 0.6; g.BiasedFrac = 0.6 },
	}
	for i, mutate := range bad {
		g := testParams(1)
		mutate(&g)
		if _, err := BuildProgram(g); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// Property: programs built from random (valid) parameter variations always
// validate and index correctly. The terminator mix varies too, up to
// mostly-jump bodies and always-taken biased branches, where unrepaired
// programs routinely hold blocks the stream could never leave.
func TestBuildProgramProperty(t *testing.T) {
	f := func(seed uint64, nb, bl, jump, loop, biased, bias uint8) bool {
		g := testParams(seed)
		g.NumBlocks = 5 + int(nb%50)
		g.BlockMin = 1 + int(bl%5)
		g.BlockMax = g.BlockMin + 8
		g.JumpFrac = float64(jump%91) / 100
		g.LoopFrac = float64(loop%101) / 100
		g.BiasedFrac = float64(biased%101) / 100 * (1 - g.LoopFrac)
		g.BiasProb = float64(50+bias%51) / 100
		p, err := BuildProgram(g)
		if err != nil {
			t.Logf("%+v: %v", g, err)
			return false
		}
		if p.Validate() != nil {
			return false
		}
		// Index assignment is dense and ordered.
		want := 0
		for _, b := range p.Blocks {
			for i := range b.Insts {
				if b.Insts[i].Index != want {
					return false
				}
				want++
			}
		}
		return want == p.Len()
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBranchKindString(t *testing.T) {
	if BranchBiased.String() != "biased" || BranchLoop.String() != "loop" || BranchRandom.String() != "random" {
		t.Error("branch kind names wrong")
	}
	if BranchKind(9).String() == "" {
		t.Error("unknown branch kind string empty")
	}
}

func TestMemPatternString(t *testing.T) {
	if MemStride.String() != "stride" || MemRandom.String() != "random" || MemStack.String() != "stack" {
		t.Error("mem pattern names wrong")
	}
	if MemPattern(9).String() == "" {
		t.Error("unknown mem pattern string empty")
	}
}

// BenchmarkBuildProgram measures constructing one program of a SPECint
// benchmark's shape (160 body blocks, 12 functions, 4–12 instructions per
// block); run it with -benchmem to see the allocations.
func BenchmarkBuildProgram(b *testing.B) {
	g := testParams(1)
	g.NumBlocks, g.NumFuncs, g.BlockMin, g.BlockMax = 160, 12, 4, 12
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProgram(g); err != nil {
			b.Fatal(err)
		}
	}
}
