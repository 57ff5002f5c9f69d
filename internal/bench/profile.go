package bench

import (
	"hdsmt/internal/cache"
	"hdsmt/internal/isa"
	"hdsmt/internal/trace"
)

// The HEUR mapping policy (paper §2.1) is profile based: "By means of
// profile information, the active threads are arranged by the number of
// data cache misses". This file is that profiling pass: it runs a
// benchmark's data-reference stream through a standalone L1 data cache and
// counts misses. A profile is a static property of a benchmark, gathered
// offline, so the simulator never runs this pass: each table entry carries
// its result as Benchmark.L1DMisses, and TestDCacheMissesPinned re-runs
// the walk to prove the table current.

// ProfileLen is the instruction count of the standard profiling run. It is
// long enough that every benchmark's miss behaviour is past warm-up.
const ProfileLen = 200_000

// CountDCacheMisses runs the profiling pass: the number of L1 data-cache
// misses benchmark b incurs over an n-instruction run on the paper's 64KB
// L1D. Only the data references matter, so the stream is walked with
// Advance's memory callback and never materialized.
func CountDCacheMisses(b Benchmark, n int) (uint64, error) {
	prog, err := b.Build(0)
	if err != nil {
		return 0, err
	}
	l1d := cache.New(cache.DefaultL1D())
	// The profiling run uses base 0: only the miss *count ordering* across
	// benchmarks matters to the mapping policy, and it is base independent.
	s := trace.NewStream(prog, b.Params.Seed, 0)
	s.Advance(uint64(max(n, 0)), nil, func(_ isa.Class, seq, addr uint64) {
		l1d.Access(addr, seq)
	})
	return l1d.Stats().Misses, nil
}
