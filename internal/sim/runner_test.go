package sim

import (
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/workload"
)

// sweepConfigs is the miniature sweep the engine-integration tests run:
// small enough for short mode, heterogeneous enough to exercise the
// oracle fan-out.
var sweepConfigs = []string{"M8", "2M4+2M2"}

func runSweep(t *testing.T, r *Runner, opt Options) []Measurement {
	t.Helper()
	w := workload.MustByName("2W7")
	out := make([]Measurement, 0, len(sweepConfigs))
	for _, name := range sweepConfigs {
		m, err := r.Evaluate(context.Background(), config.MustParse(name), w, opt)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunnerWarmCacheZeroExecutions pins the memoization acceptance
// criterion: re-running a sweep on a warm engine performs zero new
// simulations.
func TestRunnerWarmCacheZeroExecutions(t *testing.T) {
	r, err := NewRunner(engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cold := runSweep(t, r, tinyOptions())
	executed := r.Stats().Executed
	if executed == 0 {
		t.Fatal("cold sweep executed nothing")
	}
	warm := runSweep(t, r, tinyOptions())
	st := r.Stats()
	if st.Executed != executed {
		t.Errorf("warm re-run executed %d new simulations, want 0", st.Executed-executed)
	}
	if st.Hits == 0 {
		t.Error("warm re-run recorded no cache hits")
	}
	if mustJSON(t, cold) != mustJSON(t, warm) {
		t.Error("warm results differ from cold results")
	}
}

// TestRunnerDeterministicAcrossWorkers pins the determinism acceptance
// criterion: the aggregated sweep summary is byte-identical JSON across
// worker counts 1, 4 and GOMAXPROCS.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	var blobs []string
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, n := range counts {
		r, err := NewRunner(engine.Options{Workers: n})
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, mustJSON(t, runSweep(t, r, tinyOptions())))
		r.Close()
	}
	for i := 1; i < len(blobs); i++ {
		if blobs[i] != blobs[0] {
			t.Errorf("workers=%d produced a different summary than workers=%d", counts[i], counts[0])
		}
	}
}

// TestRunnerJournalResume pins the checkpoint/resume acceptance
// criterion: a sweep killed mid-way resumes from the journal, executes
// only the missing simulations, and its final summary is byte-identical
// to an uninterrupted run.
func TestRunnerJournalResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	opt := tinyOptions()

	// Uninterrupted reference.
	ref, err := NewRunner(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, runSweep(t, ref, opt))
	total := ref.Stats().Executed
	ref.Close()

	// Phase 1: the sweep dies after its first cell.
	r1, err := NewRunner(engine.Options{Workers: 2, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Evaluate(context.Background(), config.MustParse(sweepConfigs[0]),
		workload.MustByName("2W7"), opt); err != nil {
		t.Fatal(err)
	}
	journaled := r1.Stats().Executed
	r1.Close()
	if journaled == 0 || journaled >= total {
		t.Fatalf("phase 1 executed %d of %d; need a strict mid-sweep prefix", journaled, total)
	}

	// Phase 2: a new runner on the same journal resumes the sweep.
	r2, err := NewRunner(engine.Options{Workers: 2, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if restored := r2.Stats().Restored; restored != journaled {
		t.Fatalf("restored %d journal entries, want %d", restored, journaled)
	}
	got := mustJSON(t, runSweep(t, r2, opt))
	if executed := r2.Stats().Executed; executed != total-journaled {
		t.Errorf("resume executed %d simulations, want %d (the un-journaled remainder)",
			executed, total-journaled)
	}
	if got != want {
		t.Error("resumed summary differs from uninterrupted run")
	}
}

// TestRequestKeyNormalizesForThreads pins the cross-sweep cache-key
// property: callers passing the raw configuration and callers passing the
// thread-stretched one (as Explore does) produce the same job key.
func TestRequestKeyNormalizesForThreads(t *testing.T) {
	cfg := config.MustParse("M8")
	w := workload.MustByName("6W1")
	m := make([]int, w.Threads())
	a := newRequest(cfg, w, m, 1_000, 100)
	b := newRequest(cfg.ForThreads(w.Threads()), w, m, 1_000, 100)
	if a.Key() != b.Key() {
		t.Error("stretched and unstretched configs key the same simulation differently")
	}
}

// TestRunnerAblationsShareCache verifies ablation sweeps ride the same
// memoization: the RF-latency sweep's 2-cycle point is the stock 2M4+2M2
// configuration, so it reuses any prior run of that exact request.
func TestRunnerAblationsShareCache(t *testing.T) {
	r, err := NewRunner(engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := workload.MustByName("2W7")
	opt := tinyOptions()

	a1, err := r.AblateRFLatency(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	executed := r.Stats().Executed
	a2, err := r.AblateRFLatency(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Executed != executed {
		t.Error("repeated ablation re-executed simulations")
	}
	if mustJSON(t, a1) != mustJSON(t, a2) {
		t.Error("repeated ablation differs")
	}
}

// TestNewRequestNormalization pins the design-point cache-key properties:
// the default policy and a monolithic remap interval normalize away, so
// equivalent points key (and therefore memoize) identically, while real
// overrides key differently.
func TestNewRequestNormalization(t *testing.T) {
	opt := tinyOptions()
	w := workload.MustByName("2W7")
	multi := config.MustParse("2M4")
	mono := config.MustParse("M8")

	plain, err := NewRequest(multi, w, opt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defaulted, err := NewRequest(multi, w, opt, defaultPolicyName(multi), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key() != defaulted.Key() {
		t.Error("explicit default policy keys differently from the implicit default")
	}
	if defaulted.Policy != "" {
		t.Errorf("default policy not normalized away: %q", defaulted.Policy)
	}

	monoRemap, err := NewRequest(mono, w, opt, "", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if monoRemap.Remap != 0 {
		t.Error("monolithic remap interval not normalized to 0")
	}

	overridden, err := NewRequest(multi, w, opt, "ICOUNT2.8", 0)
	if err != nil {
		t.Fatal(err)
	}
	if overridden.Key() == plain.Key() {
		t.Error("policy override shares the default's key")
	}
	remapped, err := NewRequest(multi, w, opt, "", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if remapped.Key() == plain.Key() {
		t.Error("remap interval shares the static key")
	}

	if _, err := NewRequest(multi, w, opt, "NOPE", 0); err == nil {
		t.Error("unknown policy must fail")
	}
}

// TestRemapRequestRuns executes a dynamic-remap request through the engine
// and checks it simulates (and keys) independently of the static run.
func TestRemapRequestRuns(t *testing.T) {
	r, err := NewRunner(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	opt := tinyOptions()
	w := workload.MustByName("2W7")
	cfg := config.MustParse("2M4")

	static, err := NewRequest(cfg, w, opt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewRequest(cfg, w, opt, "", 512)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Engine().RunBatch(context.Background(), []engine.Request{static, dyn})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.IPC <= 0 {
			t.Errorf("request %d: IPC = %v, want positive", i, res.IPC)
		}
	}
	if got := r.Stats().Executed; got != 2 {
		t.Errorf("executed %d simulations, want 2 (remap keys separately)", got)
	}
}

// TestRunnerRunHonorsSample pins that Runner.Run samples exactly as the
// package-level Run does when opt.Sample is enabled, instead of running
// the whole sampled budget in detail.
func TestRunnerRunHonorsSample(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("2W7")
	m, err := HeuristicMapping(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Budget: 200_000, Warmup: 2_000, Sample: core.DefaultSampleParams()}
	got, err := testRunner(t).Run(context.Background(), cfg, w, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled == nil {
		t.Fatal("Runner.Run ignored opt.Sample and ran exact")
	}
	want, err := Run(cfg, w, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Error("Runner.Run and Run disagree on the same sampled cell")
	}
}
