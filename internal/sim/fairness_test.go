package sim

import (
	"math"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

func TestHarmonicFairnessEdgeCases(t *testing.T) {
	// Empty basket: no threads, no fairness signal.
	if got := HarmonicFairness(nil); got != 0 {
		t.Errorf("empty basket = %v, want 0", got)
	}
	// Single thread: the harmonic mean of one value is the value.
	if got := HarmonicFairness([]float64{0.83}); got != 0.83 {
		t.Errorf("single thread = %v, want 0.83", got)
	}
	// A starved (zero-IPC) thread pins the mean at its limit, 0 — it must
	// not be averaged away by the healthy threads.
	if got := HarmonicFairness([]float64{1.0, 0.9, 0}); got != 0 {
		t.Errorf("starved thread = %v, want 0", got)
	}
	if got := HarmonicFairness([]float64{1.0, -0.1}); got != 0 {
		t.Errorf("negative speedup = %v, want 0", got)
	}
	// The usual case: harmonic mean of {1, 0.5} = 2/3.
	if got := HarmonicFairness([]float64{1, 0.5}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("harmonic{1,0.5} = %v, want 2/3", got)
	}
	// Harmonic <= arithmetic, with equality only on uniform baskets.
	if got := HarmonicFairness([]float64{0.7, 0.7}); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("uniform basket = %v, want 0.7", got)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	if got := WeightedSpeedup(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := WeightedSpeedup([]float64{0.5, 0.75, 0}); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("sum = %v, want 1.25", got)
	}
}

func TestRelativeSpeedups(t *testing.T) {
	rels, err := relativeSpeedups([]float64{1.0, 0.5}, []float64{2.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if rels[0] != 0.5 || rels[1] != 0.5 {
		t.Errorf("rels = %v", rels)
	}
	if _, err := relativeSpeedups([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := relativeSpeedups([]float64{1, 1}, []float64{1, 0}); err == nil {
		t.Error("zero alone IPC must fail")
	}
}

// TestFairnessSingleThread: with one thread mapped to the pipeline the
// alone baseline uses, shared and alone runs are the same simulation, so
// the relative speedup — and the harmonic mean — is exactly 1.
func TestFairnessSingleThread(t *testing.T) {
	cfg := config.MustParse("1M4+1M2")
	w := workload.Workload{Name: "solo", Benchmarks: []string{"gzip"}, Type: workload.ILP}
	f, err := Fairness(cfg, w, mapping.Mapping{0}, Options{Budget: 2_000, Warmup: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.PerThread) != 1 {
		t.Fatalf("PerThread = %v, want one entry", f.PerThread)
	}
	if f.PerThread[0] != 1 {
		t.Errorf("single-thread relative speedup = %v, want exactly 1", f.PerThread[0])
	}
	if f.HarmonicFairness != 1 || f.WeightedSpeedup != 1 {
		t.Errorf("harmonic %v weighted %v, want 1/1", f.HarmonicFairness, f.WeightedSpeedup)
	}
}

// TestAloneRequestSharedBaseline: the alone request ignores policy
// variants and scales the warm-up by the shared run's thread count,
// so every variant of one machine hits one cached baseline per benchmark.
func TestAloneRequestSharedBaseline(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("4W6")
	opt := Options{Budget: 2_000, Warmup: 1_000}
	req := AloneRequest(cfg, w, 1, opt)
	if len(req.Workload.Benchmarks) != 1 || req.Workload.Benchmarks[0] != w.Benchmarks[1] {
		t.Errorf("alone workload = %v", req.Workload)
	}
	if req.Warmup != opt.Warmup*uint64(w.Threads()) {
		t.Errorf("alone warmup = %d, want %d", req.Warmup, opt.Warmup*uint64(w.Threads()))
	}
	if len(req.Mapping) != 1 || req.Mapping[0] != 0 {
		t.Errorf("alone mapping = %v, want the widest pipeline", req.Mapping)
	}
	if req.Policy != "" {
		t.Errorf("alone request carries policy %q, want none", req.Policy)
	}
	if req.Key() != AloneRequest(cfg, w, 1, opt).Key() {
		t.Error("alone request key must be stable")
	}
}
