package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/isa"
	"hdsmt/internal/mapping"
	"hdsmt/internal/trace"
	"hdsmt/internal/workload"
)

// tinyOptions keeps unit tests fast; shape assertions use modest budgets.
func tinyOptions() Options {
	return Options{Budget: 3_000, Warmup: 2_000, OracleBudget: 1_500}
}

// testRunner builds a fresh Runner that is closed when the test ends.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestEonStreamNotTrapped: before BuildProgram repaired trapping jumps,
// eon's stream in 2W1 entered a four-block loop at instruction 27,946 and
// executed its 40 instructions for the rest of any run. Well past that
// point it must still cover a good part of the program.
func TestEonStreamNotTrapped(t *testing.T) {
	specs, err := Specs(workload.MustByName("2W1"))
	if err != nil {
		t.Fatal(err)
	}
	eon := specs[0]
	if eon.Name != "eon" {
		t.Fatalf("2W1 thread 0 is %s, want eon", eon.Name)
	}
	s := trace.NewStream(eon.Program, eon.Seed, eon.DataBase)
	s.Advance(100_000, nil, nil)
	pcs := make(map[uint64]bool)
	var in isa.Instruction
	for range 50_000 {
		s.NextInto(&in)
		pcs[in.PC] = true
	}
	if len(pcs) < eon.Program.Len()/4 {
		t.Errorf("eon executed %d distinct PCs in instructions 100,000-150,000, of %d static; want at least a quarter",
			len(pcs), eon.Program.Len())
	}
}

func TestSpecs(t *testing.T) {
	w := workload.MustByName("4W6")
	specs, err := Specs(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	seenCode := map[uint64]bool{}
	seenData := map[uint64]bool{}
	for _, s := range specs {
		lo, _ := s.Program.PCBounds()
		if seenCode[lo] {
			t.Error("duplicate code base")
		}
		seenCode[lo] = true
		if seenData[s.DataBase] {
			t.Error("duplicate data base")
		}
		seenData[s.DataBase] = true
	}
}

func TestRunMonolithic(t *testing.T) {
	w := workload.MustByName("2W1")
	r, err := Run(config.MustParse("M8"), w, mapping.Mapping{0, 0}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Error("non-positive IPC")
	}
}

func TestHeuristicMappingUsesProfiles(t *testing.T) {
	// 2W7 = gzip (ILP) + twolf (MEM) on 2M4+2M2: contexts (6) exceed
	// threads (2), so step 4 gives gzip — the fewest-misses thread — the
	// widest pipeline privately; twolf lands on the next one. The two must
	// not share, and twolf must not get a wider pipeline than gzip.
	cfg := config.MustParse("2M4+2M2")
	m, err := HeuristicMapping(cfg, workload.MustByName("2W7"))
	if err != nil {
		t.Fatal(err)
	}
	gzipPipe, twolfPipe := m[0], m[1]
	if gzipPipe == twolfPipe {
		t.Errorf("mapping %v: step 4 must give gzip a private pipeline", m)
	}
	if gzipPipe != 0 {
		t.Errorf("mapping %v: gzip must take the widest pipeline", m)
	}
	if cfg.Pipelines[twolfPipe].Width > cfg.Pipelines[gzipPipe].Width {
		t.Errorf("mapping %v: twolf on a wider pipeline than gzip", m)
	}
}

// TestHeuristicMappingsPinned pins DefaultMapping for every Table 2/3
// workload on every evaluated configuration as one SHA-256: any change to
// the HEUR profiles, their source or the §2.1 policy that moves a single
// thread's pipeline fails here.
func TestHeuristicMappingsPinned(t *testing.T) {
	const want = "5da55af3ceb061a9759cadce827e18a18157cd4e3d49a249c981416b22de25af"
	h := sha256.New()
	for _, cfg := range config.EvaluatedMicroarchs() {
		for _, w := range workload.All() {
			m, err := DefaultMapping(cfg, w)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg, w.Name, err)
			}
			fmt.Fprintf(h, "%s %s %v\n", cfg, w.Name, m)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("HEUR mappings digest %s, pinned %s", got, want)
	}
}

func TestEvaluateMonolithic(t *testing.T) {
	m, err := testRunner(t).Evaluate(context.Background(), config.MustParse("M8"), workload.MustByName("2W1"), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Best != m.Heur || m.Heur != m.Worst {
		t.Error("monolithic series must coincide (no mapping needed)")
	}
	if m.Mappings != 1 {
		t.Errorf("mappings = %d", m.Mappings)
	}
}

func TestEvaluateClusteredOrdering(t *testing.T) {
	m, err := testRunner(t).Evaluate(context.Background(), config.MustParse("2M4+2M2"), workload.MustByName("2W7"), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Best < m.Heur || m.Heur < m.Worst {
		t.Errorf("series out of order: best=%.3f heur=%.3f worst=%.3f", m.Best, m.Heur, m.Worst)
	}
	if m.Mappings < 2 {
		t.Errorf("oracle searched %d mappings", m.Mappings)
	}
	if mapping.Validate(config.MustParse("2M4+2M2"), m.BestMapping) != nil {
		t.Error("best mapping invalid")
	}
}

// TestEvaluateDeterministic runs the cell on two runners, so the second
// evaluation simulates again instead of hitting the first one's memo store.
func TestEvaluateDeterministic(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	w := workload.MustByName("2W9")
	a, err := testRunner(t).Evaluate(context.Background(), cfg, w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := testRunner(t).Evaluate(context.Background(), cfg, w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || a.Heur != b.Heur || a.Worst != b.Worst {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// memFig caches the MEM sub-figure across tests (it is the expensive part
// of this package's suite).
var memFig = struct {
	once sync.Once
	fig  FigResult
	err  error
}{}

func memFigure(t *testing.T) FigResult {
	t.Helper()
	if testing.Short() {
		t.Skip("full MEM sub-figure sweep (tens of seconds); run without -short for it")
	}
	memFig.once.Do(func() {
		memFig.fig, memFig.err = testRunner(t).RunFigure(context.Background(), workload.MEM, tinyOptions())
	})
	if memFig.err != nil {
		t.Fatal(memFig.err)
	}
	return memFig.fig
}

func TestRunFigureMEM(t *testing.T) {
	// MEM is the smallest sub-figure (5 workloads, no 6-thread group).
	fig := memFigure(t)
	if len(fig.Configs) != 6 {
		t.Fatalf("configs = %d", len(fig.Configs))
	}
	wantGroups := []string{"2 THREADS", "4 THREADS", "HMEAN"}
	if len(fig.Groups) != len(wantGroups) {
		t.Fatalf("groups = %v", fig.Groups)
	}
	for i, g := range wantGroups {
		if fig.Groups[i] != g {
			t.Errorf("group %d = %s, want %s", i, fig.Groups[i], g)
		}
	}
	for _, cfg := range fig.Configs {
		for _, g := range fig.Groups {
			c := fig.Values[cfg][g]
			if c.Heur <= 0 || c.Best < c.Heur || c.Heur < c.Worst {
				t.Errorf("%s/%s cell out of order: %+v", cfg, g, c)
			}
		}
	}
	if !strings.Contains(fig.Render(), "MEM workloads") {
		t.Error("render missing title")
	}
	if fig.RenderPerWorkload() == "" {
		t.Error("per-workload render empty")
	}
}

func TestPerAreaDerivation(t *testing.T) {
	fig := memFigure(t)
	pa, err := fig.PerArea()
	if err != nil {
		t.Fatal(err)
	}
	// 2M4+2M2 is 27% smaller than M8, so its per-area cells must gain
	// exactly the area ratio against its own IPC cells.
	ipc := fig.Values["2M4+2M2"]["HMEAN"].Heur
	pav := pa.Values["2M4+2M2"]["HMEAN"].Heur
	if pav <= 0 || pav >= ipc {
		t.Errorf("per-area %.5f vs ipc %.5f", pav, ipc)
	}
	if !strings.Contains(pa.Title, "Fig. 5") {
		t.Errorf("per-area title = %q", pa.Title)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.Budget == 0 || o.Warmup == 0 {
		t.Error("defaults must be non-zero")
	}
	if o.oracleBudget() != o.Budget {
		t.Error("oracle budget must default to Budget")
	}
	o.OracleBudget = 7
	if o.oracleBudget() != 7 {
		t.Error("oracle budget override ignored")
	}
}

func TestWriteCSV(t *testing.T) {
	fig := memFigure(t)
	var buf strings.Builder
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	// Header + 6 configs x 3 groups.
	if lines != 1+6*3 {
		t.Errorf("CSV lines = %d, want %d", lines, 1+6*3)
	}
	if !strings.Contains(out, "2M4+2M2") {
		t.Error("CSV missing configs")
	}
	var per strings.Builder
	if err := fig.WritePerWorkloadCSV(&per); err != nil {
		t.Fatal(err)
	}
	// Header + 6 configs x 5 MEM workloads.
	if got := strings.Count(per.String(), "\n"); got != 1+6*5 {
		t.Errorf("per-workload CSV lines = %d, want %d", got, 1+6*5)
	}
}

// TestBudgetInsensitivity verifies the claim in the Options docstring: the
// comparative shape (which configuration wins performance-per-area) is
// stable across instruction budgets.
func TestBudgetInsensitivity(t *testing.T) {
	w := workload.MustByName("2W7")
	perArea := func(budget, warmup uint64) (m8, hd float64) {
		cfgM8 := config.MustParse("M8")
		r1, err := Run(cfgM8, w, mapping.Mapping{0, 0}, Options{Budget: budget, Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		cfgHd := config.MustParse("2M4+2M2")
		hm, err := HeuristicMapping(cfgHd, w)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(cfgHd, w, hm, Options{Budget: budget, Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		return r1.IPC / area.MustTotal(cfgM8), r2.IPC / area.MustTotal(cfgHd)
	}
	m8a, hda := perArea(5_000, 4_000)
	m8b, hdb := perArea(15_000, 8_000)
	if (hda > m8a) != (hdb > m8b) {
		t.Errorf("perf/area winner flips with budget: small %.5f vs %.5f, large %.5f vs %.5f",
			hda, m8a, hdb, m8b)
	}
	if hda <= m8a {
		t.Errorf("2M4+2M2 should win perf/area on 2W7 (got %.5f vs %.5f)", hda, m8a)
	}
}
