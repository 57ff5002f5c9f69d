// Package bench models the SPECint2000 benchmark suite as calibrated
// synthetic-trace profiles.
//
// The paper drives its simulator with 300M-instruction trace segments of the
// twelve SPECint2000 benchmarks compiled for Alpha. Those traces cannot be
// redistributed, so each benchmark here is a trace.GenParams profile
// calibrated to reproduce the *behavioural axes the paper's evaluation
// depends on*: instruction-level parallelism (dependence-window width),
// branch predictability (branch-kind mixture), and above all data-cache
// behaviour (working-set size and access-pattern mixture), which drives both
// the workload taxonomy of Tables 2-3 (ILP vs MEM vs MIX) and the HEUR
// mapping policy's profile ranking. mcf is the canonical cache-hostile
// benchmark; twolf, vpr and perlbmk are the remaining MEM-class programs;
// the other eight are ILP class, matching the paper's workload tables.
//
// Each table entry also carries its HEUR profile (L1DMisses), measured
// offline by CountDCacheMisses; BenchmarkProfilePass (repository root)
// times that walk, which regenerates the table and never runs in a
// simulation.
package bench

import (
	"fmt"

	"hdsmt/internal/trace"
)

// Class is the paper's benchmark taxonomy.
type Class uint8

const (
	// ILP marks benchmarks with high instruction-level parallelism and
	// good memory behaviour.
	ILP Class = iota
	// MEM marks benchmarks with bad memory behaviour.
	MEM
)

// String names the class as the paper does.
func (c Class) String() string {
	if c == ILP {
		return "ILP"
	}
	return "MEM"
}

// Benchmark is one SPECint2000 program profile.
type Benchmark struct {
	Name   string
	Class  Class
	Params trace.GenParams
	// L1DMisses is the benchmark's HEUR profile (§2.1): its L1 data-cache
	// misses over ProfileLen instructions on cache.DefaultL1D(), as
	// CountDCacheMisses measures them. It is table data, gathered once
	// offline like the paper's profiling runs; TestDCacheMissesPinned
	// checks every entry against the walk.
	L1DMisses uint64
}

// DefaultCodeBase is the code address programs are built at when the caller
// does not supply a per-thread base.
const DefaultCodeBase = 0x120000

// base returns GenParams fields shared by all profiles.
func base(name string, seed uint64) trace.GenParams {
	return trace.GenParams{
		Name:            name,
		Seed:            seed,
		NumBlocks:       160,
		NumFuncs:        12,
		BlockMin:        4,
		BlockMax:        12,
		CodeBase:        DefaultCodeBase,
		DepWindow:       12,
		JumpFrac:        0.06,
		CallFrac:        0.05,
		LoopPeriodMin:   4,
		LoopPeriodMax:   96,
		BiasProb:        0.93,
		RandomTakenProb: 0.5,
		StrideMin:       8,
		StrideMax:       64,
	}
}

// all is the benchmark table. Working sets are chosen against the paper's
// 64KB L1D / 512KB L2: ILP benchmarks mostly fit in L1, MEM benchmarks blow
// through it (mcf through the L2 as well). The number after each seed is
// the entry's L1DMisses.
var all = func() []Benchmark {
	mk := func(name string, class Class, seed, misses uint64, f func(*trace.GenParams)) Benchmark {
		p := base(name, seed)
		f(&p)
		return Benchmark{Name: name, Class: class, Params: p, L1DMisses: misses}
	}
	return []Benchmark{
		mk("gzip", ILP, 0xA001, 708, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.20, 0.08
			p.MulFrac = 0.01
			p.DepWindow = 16
			p.LoopFrac, p.BiasedFrac = 0.55, 0.33
			p.WorkingSet = 48 << 10
			p.StrideFrac, p.StackFrac = 0.70, 0.20
		}),
		mk("vpr", MEM, 0xA002, 51280, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.28, 0.10
			p.FPFrac = 0.04
			p.DepWindow = 7
			p.LoopFrac, p.BiasedFrac = 0.35, 0.33
			p.WorkingSet = 1 << 20
			p.StrideFrac, p.StackFrac = 0.25, 0.15
		}),
		mk("gcc", ILP, 0xA003, 1195, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.24, 0.12
			p.DepWindow = 12
			p.LoopFrac, p.BiasedFrac = 0.38, 0.42
			p.WorkingSet = 72 << 10
			p.StrideFrac, p.StackFrac = 0.55, 0.25
			p.NumBlocks = 280 // gcc's large, branchy code footprint
		}),
		mk("mcf", MEM, 0xA004, 76395, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.35, 0.09
			p.DepWindow = 4 // pointer chasing: serial dependence chains
			p.LoopFrac, p.BiasedFrac = 0.30, 0.35
			p.WorkingSet = 12 << 20 // far beyond the 512KB L2
			p.StrideFrac, p.StackFrac = 0.10, 0.08
		}),
		mk("crafty", ILP, 0xA005, 627, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.22, 0.07
			p.MulFrac = 0.02
			p.DepWindow = 14
			p.LoopFrac, p.BiasedFrac = 0.30, 0.40
			p.WorkingSet = 40 << 10
			p.StrideFrac, p.StackFrac = 0.55, 0.30
		}),
		mk("parser", ILP, 0xA006, 6336, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.25, 0.10
			p.DepWindow = 10
			p.LoopFrac, p.BiasedFrac = 0.35, 0.38
			p.WorkingSet = 96 << 10
			p.StrideFrac, p.StackFrac = 0.45, 0.25
		}),
		mk("eon", ILP, 0xA007, 482, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.23, 0.11
			p.FPFrac = 0.12 // C++ ray tracer: the FP-heaviest SPECint program
			p.DepWindow = 18
			p.LoopFrac, p.BiasedFrac = 0.50, 0.40
			p.WorkingSet = 32 << 10
			p.StrideFrac, p.StackFrac = 0.60, 0.30
			p.CallFrac = 0.09
		}),
		mk("perlbmk", MEM, 0xA008, 39390, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.26, 0.12
			p.DepWindow = 8
			p.LoopFrac, p.BiasedFrac = 0.32, 0.36
			p.WorkingSet = 640 << 10
			p.StrideFrac, p.StackFrac = 0.30, 0.20
			p.CallFrac = 0.08
		}),
		mk("gap", ILP, 0xA009, 889, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.24, 0.09
			p.MulFrac = 0.03
			p.DepWindow = 15
			p.LoopFrac, p.BiasedFrac = 0.48, 0.35
			p.WorkingSet = 56 << 10
			p.StrideFrac, p.StackFrac = 0.60, 0.22
		}),
		mk("vortex", ILP, 0xA00A, 6076, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.26, 0.14
			p.DepWindow = 13
			p.LoopFrac, p.BiasedFrac = 0.36, 0.44
			p.WorkingSet = 88 << 10
			p.StrideFrac, p.StackFrac = 0.50, 0.28
		}),
		mk("bzip2", ILP, 0xA00B, 998, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.21, 0.09
			p.DepWindow = 16
			p.LoopFrac, p.BiasedFrac = 0.55, 0.30
			p.WorkingSet = 64 << 10
			p.StrideFrac, p.StackFrac = 0.75, 0.15
		}),
		mk("twolf", MEM, 0xA00C, 43744, func(p *trace.GenParams) {
			p.LoadFrac, p.StoreFrac = 0.30, 0.10
			p.FPFrac = 0.05
			p.DepWindow = 6
			p.LoopFrac, p.BiasedFrac = 0.33, 0.34
			p.WorkingSet = 2 << 20
			p.StrideFrac, p.StackFrac = 0.20, 0.12
		}),
	}
}()

// All returns the twelve SPECint2000 benchmark profiles.
func All() []Benchmark {
	out := make([]Benchmark, len(all))
	copy(out, all)
	return out
}

// ByName resolves a benchmark by its SPEC name.
func ByName(name string) (Benchmark, error) {
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// MustByName is ByName for static workload tables; it panics on error.
func MustByName(name string) Benchmark {
	b, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Build constructs the benchmark's synthetic program with its code placed at
// codeBase (pass 0 for the default). Distinct threads of one workload use
// distinct bases so the shared I-cache and predictor see distinct programs.
func (b Benchmark) Build(codeBase uint64) (*trace.Program, error) {
	p := b.Params
	if codeBase != 0 {
		p.CodeBase = codeBase
	}
	return trace.BuildProgram(p)
}
