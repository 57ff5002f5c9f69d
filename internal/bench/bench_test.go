package bench

import (
	"testing"

	"hdsmt/internal/isa"
	"hdsmt/internal/trace"
)

func TestTwelveBenchmarks(t *testing.T) {
	bs := All()
	if len(bs) != 12 {
		t.Fatalf("SPECint2000 has 12 benchmarks, got %d", len(bs))
	}
	want := map[string]Class{
		"gzip": ILP, "vpr": MEM, "gcc": ILP, "mcf": MEM,
		"crafty": ILP, "parser": ILP, "eon": ILP, "perlbmk": MEM,
		"gap": ILP, "vortex": ILP, "bzip2": ILP, "twolf": MEM,
	}
	for _, b := range bs {
		cl, ok := want[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		if b.Class != cl {
			t.Errorf("%s class = %v, want %v (paper workload tables)", b.Name, b.Class, cl)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("mcf")
	if err != nil || b.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %v, %v", b.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustByName("nope")
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Error("All must return a defensive copy")
	}
}

func TestBuildAllPrograms(t *testing.T) {
	for _, b := range All() {
		p, err := b.Build(0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		lo, _ := p.PCBounds()
		if lo != DefaultCodeBase {
			t.Errorf("%s: code base %#x", b.Name, lo)
		}
	}
}

func TestBuildCustomCodeBase(t *testing.T) {
	b := MustByName("gzip")
	p, err := b.Build(0x40000000)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := p.PCBounds()
	if lo != 0x40000000 {
		t.Errorf("code base = %#x", lo)
	}
}

func TestBuildDeterministic(t *testing.T) {
	b := MustByName("gcc")
	p1, _ := b.Build(0)
	p2, _ := b.Build(0)
	if p1.Len() != p2.Len() {
		t.Error("builds differ")
	}
}

func TestClassString(t *testing.T) {
	if ILP.String() != "ILP" || MEM.String() != "MEM" {
		t.Error("class names must match the paper")
	}
}

func TestClassSeparationInMissRates(t *testing.T) {
	// The core calibration claim: every MEM benchmark must out-miss every
	// ILP benchmark on the paper's L1D, or the workload taxonomy and the
	// HEUR policy lose their meaning.
	const n = 100_000
	worstILP, worstILPName := uint64(0), ""
	bestMEM, bestMEMName := ^uint64(0), ""
	for _, b := range All() {
		m, err := CountDCacheMisses(b, n)
		if err != nil {
			t.Fatal(err)
		}
		switch b.Class {
		case ILP:
			if m > worstILP {
				worstILP, worstILPName = m, b.Name
			}
		case MEM:
			if m < bestMEM {
				bestMEM, bestMEMName = m, b.Name
			}
		}
	}
	if worstILP >= bestMEM {
		t.Errorf("class overlap: ILP %s misses %d >= MEM %s misses %d",
			worstILPName, worstILP, bestMEMName, bestMEM)
	}
}

func TestMcfIsWorst(t *testing.T) {
	// mcf is SPECint2000's canonical cache killer; the profiles must
	// preserve that.
	const n = 100_000
	mcf, err := CountDCacheMisses(MustByName("mcf"), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range All() {
		if b.Name == "mcf" {
			continue
		}
		m, err := CountDCacheMisses(b, n)
		if err != nil {
			t.Fatal(err)
		}
		if m >= mcf {
			t.Errorf("%s misses %d >= mcf misses %d", b.Name, m, mcf)
		}
	}
}

func TestILPBenchmarksHaveWiderDepWindows(t *testing.T) {
	// ILP class must genuinely model more instruction-level parallelism.
	sumILP, nILP, sumMEM, nMEM := 0, 0, 0, 0
	for _, b := range All() {
		if b.Class == ILP {
			sumILP += b.Params.DepWindow
			nILP++
		} else {
			sumMEM += b.Params.DepWindow
			nMEM++
		}
	}
	if nILP == 0 || nMEM == 0 {
		t.Fatal("both classes must be populated")
	}
	if float64(sumILP)/float64(nILP) <= float64(sumMEM)/float64(nMEM) {
		t.Error("ILP benchmarks must average wider dependence windows than MEM")
	}
}

func TestStreamsExecuteFPForEon(t *testing.T) {
	// eon keeps the FP pipelines warm; confirm its stream issues FP work.
	b := MustByName("eon")
	p, _ := b.Build(0)
	s := trace.NewStream(p, b.Params.Seed, 0)
	fp := 0
	var in isa.Instruction
	for i := 0; i < 20000; i++ {
		s.NextInto(&in)
		if in.Class.IsFP() {
			fp++
		}
	}
	if fp < 20000/100 {
		t.Errorf("eon issued only %d FP instructions in 20000", fp)
	}
}

func TestBranchClassesPresent(t *testing.T) {
	// Every profile should exercise the control-flow machinery.
	for _, b := range All() {
		p, _ := b.Build(0)
		s := trace.NewStream(p, b.Params.Seed, 0)
		branches := 0
		var in isa.Instruction
		for i := 0; i < 5000; i++ {
			s.NextInto(&in)
			if in.Class == isa.Branch {
				branches++
			}
		}
		if branches == 0 {
			t.Errorf("%s executed no conditional branches", b.Name)
		}
	}
}

func BenchmarkProfileMcf(b *testing.B) {
	mcf := MustByName("mcf")
	for i := 0; i < b.N; i++ {
		if _, err := CountDCacheMisses(mcf, 50_000); err != nil {
			b.Fatal(err)
		}
	}
}
