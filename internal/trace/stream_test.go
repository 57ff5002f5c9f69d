package trace

import (
	"testing"

	"hdsmt/internal/isa"
)

// next returns the stream's next instruction.
func next(s *Stream) isa.Instruction {
	var in isa.Instruction
	s.NextInto(&in)
	return in
}

func TestStreamDeterminism(t *testing.T) {
	p := mustBuild(t, testParams(1))
	a := NewStream(p, 99, 0x10000)
	b := NewStream(p, 99, 0x10000)
	for i := 0; i < 5000; i++ {
		x := next(a)
		y := next(b)
		if x != y {
			t.Fatalf("streams diverged at %d: %v vs %v", i, &x, &y)
		}
	}
}

// TestStreamRestart: a used stream restarted on another program, seed and
// base generates exactly what a new stream over them does, whether its
// storage fits the new program or must grow.
func TestStreamRestart(t *testing.T) {
	small := testParams(1)
	small.NumBlocks = 20
	progs := []*Program{mustBuild(t, testParams(1)), mustBuild(t, small), mustBuild(t, testParams(2))}
	s := NewStream(progs[0], 7, 0x20000)
	for i, p := range progs {
		for k := 0; k < 3_000; k++ {
			next(s)
		}
		seed, base := uint64(11+i), uint64(0x10000*(i+1))
		s.Restart(p, seed, base)
		fresh := NewStream(p, seed, base)
		for k := 0; k < 5_000; k++ {
			x := next(s)
			y := next(fresh)
			if x != y {
				t.Fatalf("program %d: restarted stream diverged at %d: %v vs %v", i, k, &x, &y)
			}
		}
	}
}

// TestStreamAdvanceEquivalence: Advance(n) leaves the stream in exactly
// the state n NextInto calls would — the instructions generated afterwards are
// identical, at every alignment relative to loops, calls and returns.
func TestStreamAdvanceEquivalence(t *testing.T) {
	p := mustBuild(t, testParams(1))
	for _, skip := range []uint64{1, 7, 64, 500, 4_096, 33_333} {
		a := NewStream(p, 99, 0x10000)
		b := NewStream(p, 99, 0x10000)
		for i := uint64(0); i < skip; i++ {
			next(a)
		}
		b.Advance(skip, nil, nil)
		if a.Seq() != b.Seq() {
			t.Fatalf("skip %d: Seq %d vs %d", skip, a.Seq(), b.Seq())
		}
		for i := 0; i < 2000; i++ {
			x := next(a)
			y := next(b)
			if x != y {
				t.Fatalf("skip %d: streams diverged %d instructions later: %v vs %v", skip, i, &x, &y)
			}
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	p := mustBuild(t, testParams(1))
	a := NewStream(p, 1, 0)
	b := NewStream(p, 2, 0)
	diff := false
	for i := 0; i < 5000 && !diff; i++ {
		x := next(a)
		y := next(b)
		if x != y {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamFollowsControlFlow(t *testing.T) {
	p := mustBuild(t, testParams(2))
	s := NewStream(p, 7, 0)
	prev := next(s)
	for i := 0; i < 20000; i++ {
		in := next(s)
		if in.PC != prev.NextPC() {
			t.Fatalf("at seq %d: pc %#x does not follow %v", in.Seq, in.PC, &prev)
		}
		prev = in
	}
}

func TestStreamSeqMonotonic(t *testing.T) {
	p := mustBuild(t, testParams(2))
	s := NewStream(p, 7, 0)
	for i := uint64(0); i < 1000; i++ {
		in := next(s)
		if in.Seq != i {
			t.Fatalf("seq %d at position %d", in.Seq, i)
		}
	}
	if s.Seq() != 1000 {
		t.Errorf("Seq() = %d, want 1000", s.Seq())
	}
}

func TestStreamAddressesWithinSpace(t *testing.T) {
	p := mustBuild(t, testParams(3))
	const base = 0x4000000
	s := NewStream(p, 3, base)
	seen := 0
	for i := 0; i < 50000; i++ {
		in := next(s)
		if !in.Class.IsMem() {
			continue
		}
		seen++
		if in.EffAddr < base {
			t.Fatalf("address %#x below thread base %#x", in.EffAddr, base)
		}
		if in.EffAddr%8 != 0 {
			t.Fatalf("unaligned address %#x", in.EffAddr)
		}
		if in.MemSize != 8 {
			t.Fatalf("unexpected access size %d", in.MemSize)
		}
	}
	if seen == 0 {
		t.Fatal("no memory instructions in 50000")
	}
}

func TestStreamCallReturnPairing(t *testing.T) {
	p := mustBuild(t, testParams(4))
	s := NewStream(p, 11, 0)
	var stack []uint64
	returns, matched := 0, 0
	for i := 0; i < 200000; i++ {
		in := next(s)
		switch in.Class {
		case isa.Call:
			stack = append(stack, in.FallThrough())
			if len(stack) > maxCallDepth {
				stack = stack[1:]
			}
		case isa.Return:
			returns++
			if n := len(stack); n > 0 {
				if in.Target == stack[n-1] {
					matched++
				}
				stack = stack[:n-1]
			}
		}
	}
	if returns == 0 {
		t.Skip("no returns executed in this segment")
	}
	if matched != returns {
		t.Errorf("matched %d of %d returns to call sites", matched, returns)
	}
}

func TestStreamLoopBranchPeriodicity(t *testing.T) {
	// Build a program and find a loop branch, then verify its outcome
	// sequence has the declared period.
	p := mustBuild(t, testParams(5))
	var loop *StaticInst
	for _, b := range p.Blocks {
		last := &b.Insts[len(b.Insts)-1]
		if last.Class == isa.Branch && last.Kind == BranchLoop {
			loop = last
			break
		}
	}
	if loop == nil {
		t.Fatal("no loop branch generated")
	}
	period := uint64(loop.Period)
	for count := uint64(0); count < 3*period; count++ {
		in := Materialize(loop, 9, 0, count)
		wantTaken := count%period != period-1
		if in.Taken != wantTaken {
			t.Fatalf("count %d: taken=%v want %v (period %d)", count, in.Taken, wantTaken, period)
		}
	}
}

func TestMaterializeBiasedProbability(t *testing.T) {
	st := &StaticInst{PC: 0x1000, Class: isa.Branch, Kind: BranchBiased, TakenProb: 0.9, Target: 0x2000}
	taken := 0
	const n = 20000
	for c := uint64(0); c < n; c++ {
		if Materialize(st, 42, 0, c).Taken {
			taken++
		}
	}
	frac := float64(taken) / n
	if frac < 0.88 || frac > 0.92 {
		t.Errorf("biased branch taken rate = %.3f, want ~0.9", frac)
	}
}

func TestMaterializeStrideAddresses(t *testing.T) {
	st := &StaticInst{
		PC: 0x1000, Class: isa.Load, Pattern: MemStride,
		Region: 1024, Stride: 8, MemBase: 0x100,
	}
	for c := uint64(0); c < 300; c++ {
		in := Materialize(st, 1, 0x1000000, c)
		want := uint64(0x1000000) + 0x100 + (8*c)%1024
		want &^= 7
		if in.EffAddr != want {
			t.Fatalf("count %d: addr %#x want %#x", c, in.EffAddr, want)
		}
	}
}

func TestMaterializeStackAddressesBounded(t *testing.T) {
	st := &StaticInst{PC: 0x1000, Class: isa.Store, Pattern: MemStack, Region: stackRegionBytes}
	for c := uint64(0); c < 1000; c++ {
		in := Materialize(st, 1, 0, c)
		if in.EffAddr >= st.MemBase+stackRegionBytes {
			t.Fatalf("stack address %#x outside hot region", in.EffAddr)
		}
	}
}

func BenchmarkStreamNext(b *testing.B) {
	p := mustBuild(b, testParams(1))
	s := NewStream(p, 1, 0)
	var in isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextInto(&in)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Program { return mustBuild(t, testParams(9)) }

	p := fresh()
	p.Blocks[0].Insts[1].PC += 4 // break contiguity
	if p.Validate() == nil {
		t.Error("non-contiguous block accepted")
	}

	p = fresh()
	// Control flow in the middle of a block.
	mid := &p.Blocks[0].Insts[0]
	mid.Class = isa.Jump
	mid.Target = p.Blocks[1].Start()
	if p.Validate() == nil {
		t.Error("mid-block control accepted")
	}

	p = fresh()
	// Branch to a non-block-start address.
	last := &p.Blocks[0].Insts[len(p.Blocks[0].Insts)-1]
	if last.Class.IsControl() && last.Class != isa.Return {
		last.Target += 4
		if p.Validate() == nil {
			t.Error("dangling branch target accepted")
		}
	}

	empty := &Program{Name: "empty"}
	if empty.Validate() == nil {
		t.Error("empty program accepted")
	}
	bad := &Program{Name: "emptyblock", Blocks: []*Block{{}}}
	if bad.Validate() == nil {
		t.Error("empty block accepted")
	}
}
