package config

import (
	"reflect"
	"testing"
	"testing/quick"
)

// TestTable1Defaults pins the simulation constants to paper Table 1 /
// section 4 ("Fig. 2a" resources are pinned in TestFig2aModels).
func TestTable1Defaults(t *testing.T) {
	p := DefaultSimParams()
	if p.FetchWidth != 8 || p.FetchMaxThreads != 2 {
		t.Errorf("fetch limits %+v, want 8 from 2 threads", p)
	}
	if p.ROBPerThread != 256 {
		t.Errorf("ROB = %d, want 256", p.ROBPerThread)
	}
	if p.RenameRegs != 256 {
		t.Errorf("rename regs = %d, want 256", p.RenameRegs)
	}
	if p.PipelineDepth != 8 {
		t.Errorf("depth = %d, want 8", p.PipelineDepth)
	}
	if p.RegAccessLatency != 1 {
		t.Errorf("monolithic RF latency = %d, want 1", p.RegAccessLatency)
	}
}

// TestFig2aModels pins the four pipeline models to paper Fig. 2(a).
func TestFig2aModels(t *testing.T) {
	cases := []struct {
		m                             Model
		ctx, width, tpc, q, iu, fu, l int
	}{
		{M8, 4, 8, 2, 64, 6, 3, 4},
		{M6, 2, 6, 2, 32, 4, 2, 2},
		{M4, 2, 4, 2, 32, 3, 2, 2},
		{M2, 1, 2, 1, 16, 1, 1, 1},
	}
	for _, c := range cases {
		if c.m.Contexts != c.ctx || c.m.Width != c.width || c.m.ThreadsPerCycle != c.tpc {
			t.Errorf("%s shape = %+v", c.m.Name, c.m)
		}
		if c.m.IQ != c.q || c.m.FQ != c.q || c.m.LQ != c.q {
			t.Errorf("%s queues = %d/%d/%d, want %d", c.m.Name, c.m.IQ, c.m.FQ, c.m.LQ, c.q)
		}
		if c.m.IntUnits != c.iu || c.m.FPUnits != c.fu || c.m.LdStUnits != c.l {
			t.Errorf("%s units = %d/%d/%d", c.m.Name, c.m.IntUnits, c.m.FPUnits, c.m.LdStUnits)
		}
	}
	// Decoupling buffers (paper §4).
	if M6.FetchBuf != 32 || M4.FetchBuf != 32 || M2.FetchBuf != 16 || M8.FetchBuf != 0 {
		t.Error("fetch buffer sizes do not match §4")
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"M8", "M6", "M4", "M2"} {
		m, err := ModelByName(name)
		if err != nil || m.Name != name {
			t.Errorf("ModelByName(%s) = %v, %v", name, m.Name, err)
		}
	}
	if _, err := ModelByName("M3"); err == nil {
		t.Error("M3 should not resolve")
	}
}

func TestParseCanonicalNames(t *testing.T) {
	for _, name := range []string{"M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"} {
		m, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%s): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("Parse(%s).Name = %s", name, m.Name)
		}
	}
}

func TestParsePipelineCounts(t *testing.T) {
	m := MustParse("2M4+2M2")
	if len(m.Pipelines) != 4 {
		t.Fatalf("pipelines = %d", len(m.Pipelines))
	}
	if m.Pipelines[0].Name != "M4" || m.Pipelines[1].Name != "M4" ||
		m.Pipelines[2].Name != "M2" || m.Pipelines[3].Name != "M2" {
		t.Errorf("pipeline order wrong: %v", m.Pipelines)
	}
}

func TestParseSortsWidestFirst(t *testing.T) {
	m := MustParse("2M2+1M6+2M4")
	if m.Name != "1M6+2M4+2M2" {
		t.Errorf("canonical name = %s", m.Name)
	}
	for i := 1; i < len(m.Pipelines); i++ {
		if m.Pipelines[i].Width > m.Pipelines[i-1].Width {
			t.Error("pipelines not sorted widest first")
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "M9", "0M4", "-1M4", "xM4", "2M4++2M2", "M4+"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParsePipelineBound: a job spec's config string must not be able to
// make Parse build millions of pipelines; the bound is checked before any
// pipeline is built.
func TestParsePipelineBound(t *testing.T) {
	m, err := Parse("64M2")
	if err != nil || len(m.Pipelines) != MaxPipelines {
		t.Fatalf("Parse(64M2) = %d pipelines, %v; want %d", len(m.Pipelines), err, MaxPipelines)
	}
	if _, err := Parse("32M4+32M2"); err != nil {
		t.Errorf("Parse(32M4+32M2): %v", err)
	}
	for _, bad := range []string{"65M2", "32M4+33M2", "M8+64M2", "3000000M2", "3000000000M2", "99999999999999999999M2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail: above %d pipelines", bad, MaxPipelines)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("bogus")
}

func TestMonolithicDetection(t *testing.T) {
	if !MustParse("M8").Monolithic {
		t.Error("M8 is the monolithic baseline")
	}
	for _, name := range []string{"3M4", "2M4+2M2", "1M6+2M4+2M2"} {
		if MustParse(name).Monolithic {
			t.Errorf("%s must not be monolithic", name)
		}
	}
}

// TestRegAccessLatency checks the §4 rule: 1 cycle monolithic, 2 hdSMT.
func TestRegAccessLatency(t *testing.T) {
	if MustParse("M8").Params.RegAccessLatency != 1 {
		t.Error("monolithic RF latency must be 1")
	}
	if MustParse("2M4+2M2").Params.RegAccessLatency != 2 {
		t.Error("hdSMT RF latency must be 2")
	}
}

func TestTotalContexts(t *testing.T) {
	cases := map[string]int{
		"M8":          4,
		"3M4":         6,
		"4M4":         8,
		"2M4+2M2":     6,
		"3M4+2M2":     8,
		"1M6+2M4+2M2": 8,
	}
	for name, want := range cases {
		if got := MustParse(name).TotalContexts(); got != want {
			t.Errorf("%s contexts = %d, want %d", name, got, want)
		}
	}
}

func TestTotalWidth(t *testing.T) {
	if got := MustParse("2M4+2M2").TotalWidth(); got != 12 {
		t.Errorf("2M4+2M2 width = %d, want 12", got)
	}
	if got := MustParse("M8").TotalWidth(); got != 8 {
		t.Errorf("M8 width = %d, want 8", got)
	}
}

// TestForThreads checks the paper's §3 exception: M8 stretches to 6 threads
// with no area change; multipipeline configs are unchanged.
func TestForThreads(t *testing.T) {
	m8 := MustParse("M8").ForThreads(6)
	if m8.Pipelines[0].Contexts != 6 {
		t.Errorf("M8.ForThreads(6) contexts = %d", m8.Pipelines[0].Contexts)
	}
	if MustParse("M8").ForThreads(2).Pipelines[0].Contexts != 4 {
		t.Error("ForThreads must not shrink contexts")
	}
	h := MustParse("2M4+2M2").ForThreads(6)
	if h.TotalContexts() != 6 {
		t.Error("multipipeline config must be unchanged")
	}
}

func TestEvaluatedMicroarchs(t *testing.T) {
	ms := EvaluatedMicroarchs()
	want := []string{"M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"}
	if len(ms) != len(want) {
		t.Fatalf("count = %d", len(ms))
	}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Errorf("position %d = %s, want %s", i, m.Name, want[i])
		}
	}
}

func TestNewMicroarchPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMicroarch()
}

// Property: Parse(canonicalName(x)) round-trips for random multisets of
// models.
func TestParseRoundTripProperty(t *testing.T) {
	all := []Model{M6, M4, M2} // M8 only appears alone in the paper
	f := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		if len(picks) > 6 {
			picks = picks[:6]
		}
		models := make([]Model, len(picks))
		for i, p := range picks {
			models[i] = all[int(p)%len(all)]
		}
		m := NewMicroarch(models...)
		back, err := Parse(m.Name)
		return err == nil && back.Name == m.Name && len(back.Pipelines) == len(m.Pipelines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaleModel(t *testing.T) {
	s, err := ScaleModel(M4, 75, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "M4q75f50" {
		t.Errorf("name = %q", s.Name)
	}
	if s.IQ != 24 || s.FQ != 24 || s.LQ != 24 || s.FetchBuf != 16 {
		t.Errorf("scaled sizes = IQ %d FQ %d LQ %d FB %d", s.IQ, s.FQ, s.LQ, s.FetchBuf)
	}
	// Untouched axes carry over.
	if s.Width != M4.Width || s.Contexts != M4.Contexts || s.IntUnits != M4.IntUnits {
		t.Errorf("non-queue fields changed: %+v", s)
	}

	// 100% on both axes is the identity, name included.
	id, err := ScaleModel(M2, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if id != M2 {
		t.Errorf("identity scale changed the model: %+v", id)
	}

	// The monolithic M8 has no decoupling buffer to scale.
	m8, err := ScaleModel(M8, 150, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m8.FetchBuf != 0 {
		t.Errorf("M8 fetch buffer = %d, want 0", m8.FetchBuf)
	}
	if m8.Name != "M8q150" {
		t.Errorf("name = %q", m8.Name)
	}
	if m8.IQ != 96 {
		t.Errorf("IQ = %d, want 96", m8.IQ)
	}
	// A scaled M8 is still the monolithic baseline: renaming must not
	// flip it to a multipipeline machine (FLUSH policy, 1-cycle register
	// file, thread stretching all key off Monolithic).
	scaledMono := NewMicroarch(m8)
	if !scaledMono.Monolithic {
		t.Error("scaled M8 lost its monolithic status")
	}
	if scaledMono.Params.RegAccessLatency != 1 {
		t.Errorf("scaled M8 register access latency = %d, want 1", scaledMono.Params.RegAccessLatency)
	}

	// Structures never scale to zero entries.
	tiny, err := ScaleModel(M2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.IQ < 1 || tiny.FQ < 1 || tiny.LQ < 1 || tiny.FetchBuf < 1 {
		t.Errorf("scaled to zero: %+v", tiny)
	}

	if _, err := ScaleModel(M4, 0, 100); err == nil {
		t.Error("queuePct 0 must fail")
	}
	if _, err := ScaleModel(M4, 100, -5); err == nil {
		t.Error("negative fetchBufPct must fail")
	}
}

// Scaled models participate in canonical configuration naming without
// colliding with their base model.
func TestScaledModelCanonicalName(t *testing.T) {
	s, err := ScaleModel(M4, 150, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewMicroarch(s, s, M2)
	if cfg.Name != "2M4q150+1M2" {
		t.Errorf("name = %q", cfg.Name)
	}
	if cfg.Monolithic {
		t.Error("multipipeline marked monolithic")
	}
}

// TestParseScaledRoundTrip: search results name scaled machines
// ("2M4q75f50"); Parse must rebuild exactly the machine the name came
// from, so a reported optimum can be re-simulated.
func TestParseScaledRoundTrip(t *testing.T) {
	s4, err := ScaleModel(M4, 75, 50)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ScaleModel(M2, 125, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewMicroarch(s4, s4, s2)
	back, err := Parse(cfg.Name)
	if err != nil {
		t.Fatalf("Parse(%q): %v", cfg.Name, err)
	}
	if back.Name != cfg.Name {
		t.Errorf("round trip %q -> %q", cfg.Name, back.Name)
	}
	if len(back.Pipelines) != 3 || back.Pipelines[0].IQ != s4.IQ || back.Pipelines[2].IQ != s2.IQ {
		t.Errorf("scaled sizes lost in round trip: %+v", back.Pipelines)
	}

	// Scaled monolithic baseline round-trips too.
	m8, err := ScaleModel(M8, 150, 100)
	if err != nil {
		t.Fatal(err)
	}
	mono := NewMicroarch(m8)
	back, err = Parse(mono.Name)
	if err != nil {
		t.Fatalf("Parse(%q): %v", mono.Name, err)
	}
	if !back.Monolithic || back.Pipelines[0].IQ != m8.IQ {
		t.Errorf("scaled M8 round trip lost monolithic/sizing: %+v", back)
	}

	// Non-canonical and garbage spellings are rejected.
	for _, bad := range []string{"M4q100", "M4q", "M4qx", "M4q75z", "M8f50", "M5q75"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// FuzzParse: any string, such as a job spec's config, must parse without
// a panic into 1..MaxPipelines pipelines or fail, and a parsed machine's
// canonical name must parse back to the same machine.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2", "2M2+1M6+2M4",
		"", "M9", "0M4", "-1M4", "xM4", "2M4++2M2", "M4+", "bogus",
		"2M4q75f50+1M2q125", "M8q150", "M4q100", "M4q", "M4qx", "M4q75z", "M8f50", "M5q75",
		"64M2", "65M2", "32M4+33M2", "3000000M2", "3000000000M2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := Parse(name)
		if err != nil {
			return
		}
		if n := len(m.Pipelines); n < 1 || n > MaxPipelines {
			t.Fatalf("Parse(%q) built %d pipelines, want 1..%d", name, n, MaxPipelines)
		}
		back, err := Parse(m.Name)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", name, m.Name, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("Parse(%q) = %+v, but its name %q parses to %+v", name, m, m.Name, back)
		}
	})
}
