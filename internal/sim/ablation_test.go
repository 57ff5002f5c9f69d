package sim

import (
	"context"
	"strings"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

func TestAblateRFLatency(t *testing.T) {
	a, err := testRunner(t).AblateRFLatency(context.Background(), workload.MustByName("2W1"), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 3 {
		t.Fatalf("points = %d", len(a.Points))
	}
	// Slower register files must not help.
	if a.Points[0].IPC < a.Points[2].IPC {
		t.Errorf("1-cycle RF (%.3f) slower than 3-cycle RF (%.3f)",
			a.Points[0].IPC, a.Points[2].IPC)
	}
	if !strings.Contains(a.Render(), "register-file") {
		t.Error("render missing name")
	}
}

func TestAblateFetchBuffer(t *testing.T) {
	a, err := testRunner(t).AblateFetchBuffer(context.Background(), workload.MustByName("2W1"), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 4 {
		t.Fatalf("points = %d", len(a.Points))
	}
	for _, p := range a.Points {
		if p.IPC <= 0 {
			t.Errorf("%s: non-positive IPC", p.Label)
		}
	}
}

func TestAblateFetchPolicy(t *testing.T) {
	a, err := testRunner(t).AblateFetchPolicy(context.Background(), workload.MustByName("2W7"), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ICOUNT2.8", "FLUSH", "L1MCOUNT"}
	if len(a.Points) != len(want) {
		t.Fatalf("points = %d", len(a.Points))
	}
	for i, p := range a.Points {
		if p.Label != want[i] {
			t.Errorf("point %d = %s, want %s", i, p.Label, want[i])
		}
		if p.IPC <= 0 {
			t.Errorf("%s: non-positive IPC", p.Label)
		}
	}
}

func TestRunAblations(t *testing.T) {
	as, err := testRunner(t).RunAblations(context.Background(), workload.MustByName("2W7"), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 {
		t.Fatalf("ablations = %d", len(as))
	}
}

func TestRunDynamic(t *testing.T) {
	r, err := RunDynamic(config.MustParse("2M4+2M2"), workload.MustByName("2W7"),
		512, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.StaticIPC <= 0 || r.DynamicIPC <= 0 {
		t.Errorf("non-positive IPCs: %+v", r)
	}
	if r.Interval != 512 {
		t.Errorf("interval = %d", r.Interval)
	}
}

func TestFairnessMetrics(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("2W7")
	m, err := HeuristicMapping(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// Fairness needs a long enough measurement window that per-thread
	// rates average over miss bursts; tiny budgets give meaningless
	// per-thread ratios.
	f, err := Fairness(cfg, w, m, Options{Budget: 12_000, Warmup: 8_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.PerThread) != 2 {
		t.Fatalf("per-thread = %d", len(f.PerThread))
	}
	for i, rel := range f.PerThread {
		// Relative speedups can slightly exceed 1 at scaled budgets
		// (warm-up asymmetries; see Fairness), but not wildly.
		if rel <= 0 || rel > 2.0 {
			t.Errorf("thread %d relative speedup %.3f implausible", i, rel)
		}
	}
	if f.WeightedSpeedup <= 0 || f.WeightedSpeedup > 1.5*float64(w.Threads()) {
		t.Errorf("weighted speedup %.3f out of range", f.WeightedSpeedup)
	}
	if f.HarmonicFairness > f.WeightedSpeedup/float64(w.Threads())+1e-9 {
		t.Error("harmonic fairness must not exceed the arithmetic mean of speedups")
	}
	if f.Render() == "" {
		t.Error("empty render")
	}
}

func TestWidthFitMapping(t *testing.T) {
	cfg := config.MustParse("1M6+2M4+2M2")
	w := workload.MustByName("6W1") // 6 ILP threads
	m, err := WidthFitMapping(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapping.Validate(cfg, m); err != nil {
		t.Fatal(err)
	}
	// WidthFit must fill the wide pipelines: nobody on an M2 when
	// M6 + 2xM4 can hold all six threads.
	for i, p := range m {
		if cfg.Pipelines[p].Name == "M2" {
			t.Errorf("thread %d (%s) stranded on M2 by WidthFit", i, w.Benchmarks[i])
		}
	}
}
