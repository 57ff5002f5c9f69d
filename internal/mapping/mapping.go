// Package mapping implements thread-to-pipeline mapping for hdSMT
// processors: the paper's profile-guided heuristic (§2.1) and the
// exhaustive enumeration behind the BEST/WORST oracle measurements (§5).
package mapping

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hdsmt/internal/config"
)

// Mapping assigns each thread (by index) a pipeline index.
type Mapping []int

// String renders a mapping compactly, e.g. "[0 0 1 2]".
func (m Mapping) String() string {
	parts := make([]string, len(m))
	for i, p := range m {
		parts[i] = fmt.Sprint(p)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Clone returns a copy.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	copy(out, m)
	return out
}

// Validate checks that m maps each of n threads to an existing pipeline
// without exceeding any pipeline's hardware contexts.
func Validate(cfg config.Microarch, m Mapping) error {
	used := make([]int, len(cfg.Pipelines))
	for i, p := range m {
		if p < 0 || p >= len(cfg.Pipelines) {
			return fmt.Errorf("mapping: thread %d to pipeline %d of %d", i, p, len(cfg.Pipelines))
		}
		used[p]++
		if used[p] > cfg.Pipelines[p].Contexts {
			return fmt.Errorf("mapping: pipeline %d (%s) holds %d contexts, assigned %d",
				p, cfg.Pipelines[p].Name, cfg.Pipelines[p].Contexts, used[p])
		}
	}
	return nil
}

// Heuristic implements the paper's §2.1 profile-based policy. misses[i] is
// thread i's profiled data-cache miss count. The algorithm, verbatim from
// the paper:
//
//  1. Arrange all active threads by the number of data cache misses in a
//     list T (fewest misses first).
//  2. Arrange all pipelines by their width in a list P (widest first).
//  3. Map the first thread in T to the first pipeline in P.
//  4. If this is the first assignment, and there are more available
//     hardware contexts than active threads, then remove the top of P.
//  5. Remove the top of T.
//  6. If all the hardware contexts of the pipeline at the top of P are
//     busy, then remove the top of P.
//  7. If T is not empty, continue at step 3.
//
// Step 4 gives the best-behaved thread a private wide pipeline whenever
// the machine has contexts to spare.
func Heuristic(cfg config.Microarch, misses []uint64) (Mapping, error) {
	n := len(misses)
	if n == 0 {
		return nil, fmt.Errorf("mapping: no threads")
	}
	if cfg.TotalContexts() < n {
		return nil, fmt.Errorf("mapping: %s has %d contexts for %d threads",
			cfg.Name, cfg.TotalContexts(), n)
	}

	// List T: thread indexes by ascending miss count (stable on index).
	T := make([]int, n)
	for i := range T {
		T[i] = i
	}
	sort.SliceStable(T, func(a, b int) bool { return misses[T[a]] < misses[T[b]] })

	// List P: pipeline indexes by descending width. Microarch pipelines
	// are already widest-first; keep explicit indexes for clarity.
	P := make([]int, len(cfg.Pipelines))
	for i := range P {
		P[i] = i
	}

	out := make(Mapping, n)
	used := make([]int, len(cfg.Pipelines))
	first := true
	for len(T) > 0 {
		if len(P) == 0 {
			return nil, fmt.Errorf("mapping: ran out of pipelines (internal error)")
		}
		thr, pipe := T[0], P[0]
		out[thr] = pipe // step 3
		used[pipe]++
		// Step 4. Never retire the last pipeline: the rule is meant to
		// give the cleanest thread a private wide pipeline, which is
		// moot (and would strand threads) on a single-pipeline machine.
		if first && cfg.TotalContexts() > n && len(P) > 1 {
			P = P[1:]
		}
		first = false
		T = T[1:] // step 5
		if len(P) > 0 && used[P[0]] >= cfg.Pipelines[P[0]].Contexts {
			P = P[1:] // step 6
		}
	}
	if err := Validate(cfg, out); err != nil {
		return nil, fmt.Errorf("mapping: heuristic produced invalid mapping: %w", err)
	}
	return out, nil
}

// maxThreads bounds Enumerate's thread count: the dedup signature holds
// each pipeline's threads as the bits of one uint64.
const maxThreads = 64

// Enumerate returns every capacity-feasible mapping of n threads onto cfg,
// deduplicated across interchangeable pipelines (two pipelines of the same
// model are identical hardware, so swapping their thread sets yields the
// same machine). The result is deterministic. It is nil when n is 0, above
// cfg's contexts, or above 64 threads.
func Enumerate(cfg config.Microarch, n int) []Mapping {
	if n == 0 || n > maxThreads || cfg.TotalContexts() < n {
		return nil
	}
	var (
		out   []Mapping
		canon = newCanonical(cfg)
		seen  = map[string]bool{}
		cur   = make(Mapping, n)
		used  = make([]int, len(cfg.Pipelines))
	)
	var rec func(thread int)
	rec = func(thread int) {
		if thread == n {
			if sig := canon.key(cur); !seen[string(sig)] {
				seen[string(sig)] = true
				out = append(out, cur.Clone())
			}
			return
		}
		for p := range cfg.Pipelines {
			if used[p] >= cfg.Pipelines[p].Contexts {
				continue
			}
			used[p]++
			cur[thread] = p
			rec(thread + 1)
			used[p]--
		}
	}
	rec(0)
	return out
}

// canonical builds mapping signatures invariant under permutation of
// same-model pipelines. A signature is every pipeline's thread set as a
// bit mask, ordered by model (the index of the model's first pipeline)
// and then by mask, 8 bytes per pipeline. Every mapping onto one
// configuration has the same pipelines per model, so the model order
// needs no bytes of its own. The buffers are reused across calls.
type canonical struct {
	models []int // per pipeline: the index of its model's first pipeline
	sets   []pipeSet
	buf    []byte
}

// pipeSet is one pipeline's share of a mapping.
type pipeSet struct {
	model   int
	threads uint64 // bit t set when thread t runs on the pipeline
}

func newCanonical(cfg config.Microarch) *canonical {
	c := &canonical{
		models: make([]int, len(cfg.Pipelines)),
		sets:   make([]pipeSet, len(cfg.Pipelines)),
		buf:    make([]byte, 0, 8*len(cfg.Pipelines)),
	}
	for p := range c.models {
		for cfg.Pipelines[c.models[p]].Name != cfg.Pipelines[p].Name {
			c.models[p]++
		}
	}
	return c
}

// key returns m's signature, valid until the next call.
func (c *canonical) key(m Mapping) []byte {
	for p, model := range c.models {
		c.sets[p] = pipeSet{model: model}
	}
	for t, p := range m {
		c.sets[p].threads |= 1 << t
	}
	slices.SortFunc(c.sets, func(a, b pipeSet) int {
		return cmp.Or(cmp.Compare(a.model, b.model), cmp.Compare(a.threads, b.threads))
	})
	c.buf = c.buf[:0]
	for _, s := range c.sets {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, s.threads)
	}
	return c.buf
}
