package sim

import (
	"context"
	"fmt"
	"strings"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// Fairness metrics standard in the SMT literature but absent from the
// paper's evaluation (which reports only combined IPC): weighted speedup
// (Snavely & Tullsen) normalizes each thread's shared-mode throughput by its
// alone-mode throughput, so a policy cannot look good by starving slow
// threads; the harmonic mean of the same ratios additionally punishes
// imbalance.

// FairnessResult reports a configuration/mapping's fairness on a workload.
type FairnessResult struct {
	Config   string
	Workload string
	// PerThread[i] is thread i's relative speedup: shared IPC / alone IPC.
	PerThread []float64
	// WeightedSpeedup is the sum of relative speedups (n would be perfect
	// scaling; 1 means the machine delivers one thread's worth of work).
	WeightedSpeedup float64
	// HarmonicFairness is the harmonic mean of relative speedups.
	HarmonicFairness float64
}

// Render formats the result.
func (f FairnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fairness %s on %s: weighted speedup %.3f, harmonic %.3f\n",
		f.Workload, f.Config, f.WeightedSpeedup, f.HarmonicFairness)
	for i, v := range f.PerThread {
		fmt.Fprintf(&b, "  thread %d relative speedup %.3f\n", i, v)
	}
	return b.String()
}

// WeightedSpeedup sums the relative speedups: the Snavely & Tullsen
// throughput metric. An empty basket sums to 0.
func WeightedSpeedup(rels []float64) float64 {
	sum := 0.0
	for _, r := range rels {
		sum += r
	}
	return sum
}

// HarmonicFairness is the harmonic mean of the relative speedups. A single
// thread's fairness is its own relative speedup; an empty basket is 0; a
// starved thread (relative speedup <= 0) pins the harmonic mean at its
// limit, 0 — the mean must punish total starvation, not average it away.
func HarmonicFairness(rels []float64) float64 {
	if len(rels) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rels {
		if r <= 0 {
			return 0
		}
		sum += 1 / r
	}
	return float64(len(rels)) / sum
}

// relativeSpeedups divides each thread's shared-mode IPC by its alone-mode
// IPC. A non-positive alone IPC is a simulation defect, not a fairness
// signal, and errors out.
func relativeSpeedups(shared, alone []float64) ([]float64, error) {
	if len(shared) != len(alone) {
		return nil, fmt.Errorf("sim: %d shared IPCs vs %d alone runs", len(shared), len(alone))
	}
	rels := make([]float64, len(shared))
	for i := range shared {
		if alone[i] <= 0 {
			return nil, fmt.Errorf("sim: alone run %d produced no throughput", i)
		}
		rels[i] = shared[i] / alone[i]
	}
	return rels, nil
}

// AloneRequest builds the engine job measuring w's i-th benchmark alone on
// cfg: the single thread on the machine's widest pipeline (the best case a
// migration policy could give it), exact whatever opt.Sample says. The
// warm-up is scaled by w's thread count: in the shared run the warm-up
// phase lasts until the *slowest* thread retires its quota, so fast threads
// enter measurement with far warmer caches and predictors than a plain
// single-thread warm-up would give them, and the scaling keeps the two
// measurements comparable at scaled budgets (at the paper's 300M scale the
// difference vanishes). The request carries no fetch-policy override and
// no remap interval — alone mode has no arbitration to police and nothing
// to migrate — so every policy/remap variant of a machine shares one cached
// alone baseline per benchmark.
func AloneRequest(cfg config.Microarch, w workload.Workload, i int, opt Options) engine.Request {
	name := w.Benchmarks[i]
	aloneW := workload.Workload{Name: w.Name + "/" + name, Benchmarks: []string{name}, Type: w.Type}
	return newRequest(cfg, aloneW, mapping.Mapping{0}, opt.Budget, opt.Warmup*uint64(w.Threads()))
}

// FairnessFromResults assembles the fairness metrics from an
// already-simulated shared run and the matching alone-run IPCs (in
// w.Benchmarks order) — the engine-batched path: callers submit the shared
// request and AloneRequest per benchmark through the engine, then derive
// fairness here without re-simulating anything.
func FairnessFromResults(cfg config.Microarch, w workload.Workload, shared core.Results, alone []float64) (FairnessResult, error) {
	return fairnessFrom(cfg, w, shared.PerThreadIPC, alone)
}

// fairnessFrom assembles the metrics from per-thread shared IPCs and the
// matching alone IPCs.
func fairnessFrom(cfg config.Microarch, w workload.Workload, shared, alone []float64) (FairnessResult, error) {
	out := FairnessResult{Config: cfg.Name, Workload: w.Name}
	rels, err := relativeSpeedups(shared, alone)
	if err != nil {
		return out, err
	}
	out.PerThread = rels
	out.WeightedSpeedup = WeightedSpeedup(rels)
	out.HarmonicFairness = HarmonicFairness(rels)
	return out, nil
}

// Fairness measures workload w on cfg under mapping m (sampled when
// opt.Sample is enabled, like Run) against each thread's exact alone-mode
// run, AloneRequest.
func Fairness(cfg config.Microarch, w workload.Workload, m mapping.Mapping, opt Options) (FairnessResult, error) {
	shared, err := Run(cfg, w, m, opt)
	if err != nil {
		return FairnessResult{Config: cfg.Name, Workload: w.Name}, err
	}
	alone := make([]float64, len(w.Benchmarks))
	for i, name := range w.Benchmarks {
		r, err := simulate(context.Background(), AloneRequest(cfg, w, i, opt))
		if err != nil {
			return FairnessResult{Config: cfg.Name, Workload: w.Name}, fmt.Errorf("sim: alone run of %s: %w", name, err)
		}
		alone[i] = r.IPC
	}
	return fairnessFrom(cfg, w, shared.PerThreadIPC, alone)
}
