package sim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/workload"
)

// entryPointCells are the (configuration, workload) probes the pinned
// entry points run on: one heterogeneous machine across three 2-thread
// mixes, the monolithic baseline and the widest hdSMT machine on 4 threads.
var entryPointCells = []struct{ cfg, w string }{
	{"2M4+2M2", "2W1"},
	{"2M4+2M2", "2W4"},
	{"2M4+2M2", "2W7"},
	{"M8", "4W6"},
	{"1M6+2M4+2M2", "4W7"},
}

// entryPointDigests runs every simulation entry point of the package on
// the probes and returns the SHA-256 of each result's JSON encoding,
// keyed by entry point and probe.
func entryPointDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	record := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = fmt.Sprintf("%x", sha256.Sum256(b))
	}

	opt := Options{Budget: 8_000, Warmup: 2_000}
	sampled := opt
	sampled.Sample = core.DefaultSampleParams()
	for _, c := range entryPointCells {
		cfg, w := config.MustParse(c.cfg), workload.MustByName(c.w)
		m, err := DefaultMapping(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		probe := c.cfg + "×" + c.w
		r, err := Run(cfg, w, m, opt)
		record("Run/"+probe, r, err)
		r, err = Run(cfg, w, m, sampled)
		if err == nil && r.Sampled == nil {
			t.Fatalf("Run/%s with sampling enabled ran exact", probe)
		}
		record("Run.sampled/"+probe, r, err)
		r, err = RunReference(cfg, w, m, opt)
		record("RunReference/"+probe, r, err)
		d, err := RunDynamic(cfg, w, DefaultRemapInterval, opt)
		record("RunDynamic/"+probe, d, err)
		f, err := Fairness(cfg, w, m, opt)
		record("Fairness/"+probe, f, err)
	}

	runner, err := NewRunner(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	ctx := context.Background()
	meas, err := runner.Evaluate(ctx, config.MustParse("2M4+2M2"), workload.MustByName("2W7"), tinyOptions())
	record("Runner.Evaluate/2M4+2M2×2W7", meas, err)
	abl, err := runner.AblateRFLatency(ctx, workload.MustByName("2W1"), tinyOptions())
	record("Runner.AblateRFLatency/2W1", abl, err)
	cands, err := CandidateConfigs(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := runner.Explore(ctx, []workload.Workload{workload.MustByName("2W7")}, cands, tinyOptions(), nil)
	record("Runner.Explore/2W7", ex, err)
	return out
}

// TestEntryPointsPinned pins the results of every way this package runs a
// simulation — Run (exact and sampled), RunReference, RunDynamic, Fairness
// and the Runner sweeps — to the SHA-256 of their JSON that
// testdata/entrypoints.sha256 records, so a change to how a processor is
// assembled that alters any simulated number fails here. On a mismatch
// the test prints the new digest line.
func TestEntryPointsPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "entrypoints.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	got := entryPointDigests(t)
	for name, digest := range got {
		if digest != want[name] {
			t.Errorf("%s digest changed; new line:\n%s %s", name, name, digest)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d entry points produced, %d pinned", len(got), len(want))
	}
}
