package bench

import (
	"slices"
	"sync"
	"sync/atomic"

	"hdsmt/internal/cache"
	"hdsmt/internal/isa"
	"hdsmt/internal/trace"
)

// The HEUR mapping policy (paper §2.1) is profile based: "By means of
// profile information, the active threads are arranged by the number of
// data cache misses". This file is that profiling pass: it runs a
// benchmark's data-reference stream through a standalone L1 data cache and
// counts misses. Results are memoized — a profile is a static property of a
// benchmark, gathered once, exactly as an offline profiling run would be.

// ProfileLen is the instruction count of the standard profiling run. It is
// long enough that every benchmark's miss behaviour is past warm-up.
const ProfileLen = 200_000

// profileKey memoizes per (benchmark, length).
type profileKey struct {
	name string
	n    int
}

// profileEntry is one memoized profile. once makes concurrent first uses
// of a key share a single pass; done tells MissCounts, without blocking,
// that the pass has finished.
type profileEntry struct {
	once   sync.Once
	done   atomic.Bool
	misses uint64
	err    error
}

var (
	profileMu sync.Mutex
	profiles  = map[profileKey]*profileEntry{}
	// profilePasses counts the passes the memo has run, so tests can see
	// that concurrent first uses share one.
	profilePasses atomic.Uint64
)

// profileFor returns the memo entry of (b, n), creating it on first use.
func profileFor(b Benchmark, n int) *profileEntry {
	key := profileKey{b.Name, n}
	profileMu.Lock()
	defer profileMu.Unlock()
	e := profiles[key]
	if e == nil {
		e = new(profileEntry)
		profiles[key] = e
	}
	return e
}

// get returns the entry's profile, running the pass on first use.
func (e *profileEntry) get(b Benchmark, n int) (uint64, error) {
	e.once.Do(func() {
		profilePasses.Add(1)
		e.misses, e.err = CountDCacheMisses(b, n)
		e.done.Store(true)
	})
	return e.misses, e.err
}

// CountDCacheMisses runs the profiling pass itself, uncached: the number of
// L1 data-cache misses benchmark b incurs over an n-instruction run on the
// paper's 64KB L1D. Only the data references matter, so the stream is
// walked with Advance's memory callback and never materialized.
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

// DCacheMisses is CountDCacheMisses memoized: each (benchmark, length) is
// profiled once per process, however many goroutines ask for it first.
func DCacheMisses(b Benchmark, n int) (uint64, error) {
	return profileFor(b, n).get(b, n)
}

// MissCounts returns DCacheMisses(b, n) for every b in bs, in order. The
// benchmarks not yet profiled are profiled concurrently, one goroutine
// each; a call whose profiles are all memoized starts no goroutine.
func MissCounts(bs []Benchmark, n int) ([]uint64, error) {
	entries := make([]*profileEntry, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		e := profileFor(b, n)
		entries[i] = e
		if e.done.Load() || slices.Contains(entries[:i], e) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.get(b, n)
		}()
	}
	wg.Wait()
	out := make([]uint64, len(bs))
	for i, e := range entries {
		m, err := e.get(bs[i], n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
