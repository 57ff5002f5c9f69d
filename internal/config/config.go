// Package config defines the pipeline models of paper Fig. 2(a) and the
// microarchitecture descriptors of the evaluation (Fig. 3): the monolithic
// SMT baseline M8, homogeneous clusterings such as 3M4, and heterogeneous
// hdSMT configurations such as 2M4+2M2, written exactly as the paper writes
// them.
package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Model is one pipeline model (paper Fig. 2a): the resource budget of a
// single back-end pipeline.
type Model struct {
	Name     string
	Contexts int // hardware contexts (threads resident)
	Width    int // max instructions per cycle through the pipeline
	// ThreadsPerCycle is the max threads that may contribute instructions
	// in one cycle (the ".8" and ".2" of ICOUNT-style policies).
	ThreadsPerCycle int
	IQ              int // integer issue queue entries
	FQ              int // floating-point issue queue entries
	LQ              int // load/store queue entries
	IntUnits        int
	FPUnits         int
	LdStUnits       int
	// FetchBuf is the decoupling buffer between the shared fetch engine
	// and this pipeline (paper §4: 32 entries for M6/M4, 16 for M2; the
	// monolithic M8 has none).
	FetchBuf int
}

// The four pipeline models of Fig. 2(a).
var (
	M8 = Model{Name: "M8", Contexts: 4, Width: 8, ThreadsPerCycle: 2,
		IQ: 64, FQ: 64, LQ: 64, IntUnits: 6, FPUnits: 3, LdStUnits: 4, FetchBuf: 0}
	M6 = Model{Name: "M6", Contexts: 2, Width: 6, ThreadsPerCycle: 2,
		IQ: 32, FQ: 32, LQ: 32, IntUnits: 4, FPUnits: 2, LdStUnits: 2, FetchBuf: 32}
	M4 = Model{Name: "M4", Contexts: 2, Width: 4, ThreadsPerCycle: 2,
		IQ: 32, FQ: 32, LQ: 32, IntUnits: 3, FPUnits: 2, LdStUnits: 2, FetchBuf: 32}
	M2 = Model{Name: "M2", Contexts: 1, Width: 2, ThreadsPerCycle: 1,
		IQ: 16, FQ: 16, LQ: 16, IntUnits: 1, FPUnits: 1, LdStUnits: 1, FetchBuf: 16}
)

// Models lists the four models, widest first.
func Models() []Model { return []Model{M8, M6, M4, M2} }

// ModelByName resolves "M8".."M2".
func ModelByName(name string) (Model, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("config: unknown pipeline model %q", name)
}

// SimParams carries the configuration-independent constants of Table 1 plus
// global front-end limits ("all simulations are limited to 8 instructions
// fetchable per cycle, from a maximum of 2 threads").
type SimParams struct {
	FetchWidth      int // 8
	FetchMaxThreads int // 2
	ROBPerThread    int // 256 entries, replicated per thread
	RenameRegs      int // 256 shared rename registers
	PipelineDepth   int // 8 stages
	// RegAccessLatency is 1 for the monolithic SMT and 2 for hdSMT
	// configurations (paper §4: multipipeline register-file sharing
	// doubles register read/write time).
	RegAccessLatency int
}

// DefaultSimParams returns Table 1's constants for a monolithic processor;
// NewMicroarch adjusts RegAccessLatency for multipipeline configurations.
func DefaultSimParams() SimParams {
	return SimParams{
		FetchWidth:       8,
		FetchMaxThreads:  2,
		ROBPerThread:     256,
		RenameRegs:       256,
		PipelineDepth:    8,
		RegAccessLatency: 1,
	}
}

// Microarch is a complete processor configuration: a set of pipelines plus
// global parameters.
type Microarch struct {
	Name      string
	Pipelines []Model
	// Monolithic marks the single-pipeline M8 baseline, which uses the
	// FLUSH fetch policy and 1-cycle register access.
	Monolithic bool
	Params     SimParams
}

// NewMicroarch assembles a microarchitecture from pipeline models, ordering
// pipelines widest first (the mapping policy's list P). The canonical
// textual name (e.g. "2M4+2M2") is derived from the models.
func NewMicroarch(models ...Model) Microarch {
	if len(models) == 0 {
		panic("config: microarchitecture needs at least one pipeline")
	}
	ps := make([]Model, len(models))
	copy(ps, models)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Width > ps[j].Width })

	m := Microarch{
		Pipelines: ps,
		// Monolithic is detected by width, not name: a structure-scaled M8
		// (ScaleModel renames it "M8q150") is still the single-pipeline
		// baseline — FLUSH policy, 1-cycle register file, thread
		// stretching, no multipipeline area overheads. Width 8 uniquely
		// identifies M8 among the models.
		Monolithic: len(ps) == 1 && ps[0].Width == M8.Width,
		Params:     DefaultSimParams(),
	}
	if !m.Monolithic {
		m.Params.RegAccessLatency = 2
	}
	m.Name = canonicalName(ps)
	return m
}

// canonicalName renders "M8", "3M4", "2M4+2M2", "1M6+2M4+2M2". The
// single-pipeline baseline (scaled or not — same width test as the
// Monolithic flag) keeps its bare model name, no count prefix.
func canonicalName(ps []Model) string {
	if len(ps) == 1 && ps[0].Width == M8.Width {
		return ps[0].Name
	}
	var parts []string
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].Name == ps[i].Name {
			j++
		}
		parts = append(parts, fmt.Sprintf("%d%s", j-i, ps[i].Name))
		i = j
	}
	return strings.Join(parts, "+")
}

// MaxPipelines bounds the pipelines of a parsed configuration. Names
// arrive in job specs, so Parse checks the bound before building any
// pipeline; the design-space search never emits a larger machine.
const MaxPipelines = 64

// Parse builds a Microarch from the paper's notation: "M8", "3M4",
// "2M4+2M2", "1M6+2M4+2M2". A bare model name means one pipeline of it.
// ScaleModel suffixes round-trip too ("2M4q75f50"), so a machine reported
// by the design-space search can be re-simulated from its name. A name
// with more than MaxPipelines pipelines is an error.
func Parse(name string) (Microarch, error) {
	var models []Model
	for _, part := range strings.Split(name, "+") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Microarch{}, fmt.Errorf("config: empty component in %q", name)
		}
		count := 1
		rest := part
		if i := strings.IndexByte(part, 'M'); i > 0 {
			n, err := strconv.Atoi(part[:i])
			if err != nil || n <= 0 {
				return Microarch{}, fmt.Errorf("config: bad pipeline count in %q", part)
			}
			count = n
			rest = part[i:]
		}
		if count > MaxPipelines-len(models) {
			return Microarch{}, fmt.Errorf("config: %q has more than %d pipelines", name, MaxPipelines)
		}
		model, err := ModelByName(rest)
		if err != nil {
			model, err = parseScaled(rest)
		}
		if err != nil {
			return Microarch{}, fmt.Errorf("config: in %q: %w", name, err)
		}
		for k := 0; k < count; k++ {
			models = append(models, model)
		}
	}
	return NewMicroarch(models...), nil
}

// parseScaled resolves a ScaleModel name ("M4q75f50": base model plus
// optional q<percent> and f<percent> suffixes, in that order). Rebuilding
// through ScaleModel guarantees the parsed model is exactly the one the
// name was derived from.
func parseScaled(name string) (Model, error) {
	for _, base := range Models() {
		suffix, ok := strings.CutPrefix(name, base.Name)
		if !ok || suffix == "" {
			continue
		}
		qPct, fPct := 100, 100
		if rest, ok := strings.CutPrefix(suffix, "q"); ok {
			digits := rest
			if i := strings.IndexByte(rest, 'f'); i >= 0 {
				digits = rest[:i]
			}
			n, err := strconv.Atoi(digits)
			if err != nil {
				continue
			}
			qPct = n
			suffix = rest[len(digits):]
		}
		if rest, ok := strings.CutPrefix(suffix, "f"); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				continue
			}
			fPct = n
			suffix = ""
		}
		if suffix != "" { // trailing garbage neither branch consumed
			continue
		}
		m, err := ScaleModel(base, qPct, fPct)
		if err != nil {
			return Model{}, err
		}
		if m.Name != name {
			// The name does not canonically encode these scales (e.g.
			// "M4q100", or an f-suffix on the bufferless M8).
			return Model{}, fmt.Errorf("config: non-canonical scaled model name %q (canonical: %q)", name, m.Name)
		}
		return m, nil
	}
	return Model{}, fmt.Errorf("config: unknown pipeline model %q", name)
}

// MustParse is Parse for static configuration strings; it panics on error.
func MustParse(name string) Microarch {
	m, err := Parse(name)
	if err != nil {
		panic(err)
	}
	return m
}

// ScaleModel returns a variant of m with its issue/load queues scaled to
// queuePct percent (IQ, FQ, LQ) and its decoupling buffer scaled to
// fetchBufPct percent. Scaled structures keep at least one entry; a model
// with no decoupling buffer (the monolithic M8) keeps none. The variant is
// renamed ("M4q75f50") so scaled pipelines are distinguishable in canonical
// configuration names and never collide with the calibrated base models.
// The area model prices the resized structures by entry count (see
// area.PipelineArea).
func ScaleModel(m Model, queuePct, fetchBufPct int) (Model, error) {
	if queuePct <= 0 || fetchBufPct <= 0 {
		return Model{}, fmt.Errorf("config: scale percentages must be positive, got q%d f%d", queuePct, fetchBufPct)
	}
	out := m
	scale := func(n, pct int) int {
		if n == 0 {
			return 0
		}
		if v := n * pct / 100; v > 0 {
			return v
		}
		return 1
	}
	if queuePct != 100 {
		out.IQ = scale(m.IQ, queuePct)
		out.FQ = scale(m.FQ, queuePct)
		out.LQ = scale(m.LQ, queuePct)
		out.Name += fmt.Sprintf("q%d", queuePct)
	}
	if fetchBufPct != 100 && m.FetchBuf > 0 {
		out.FetchBuf = scale(m.FetchBuf, fetchBufPct)
		out.Name += fmt.Sprintf("f%d", fetchBufPct)
	}
	return out, nil
}

// TotalContexts returns the number of hardware contexts across pipelines.
func (m Microarch) TotalContexts() int {
	total := 0
	for _, p := range m.Pipelines {
		total += p.Contexts
	}
	return total
}

// TotalWidth returns the summed pipeline widths (global decode bandwidth
// potential; paper §2 notes this may exceed the fetch width).
func (m Microarch) TotalWidth() int {
	total := 0
	for _, p := range m.Pipelines {
		total += p.Width
	}
	return total
}

// ForThreads returns a copy of m able to hold n threads. The paper's special
// case (§3): the M8 baseline is assumed to accept 6 threads with no extra
// area, so the monolithic configuration stretches its context count.
// Multipipeline configurations are returned unchanged; callers must check
// TotalContexts themselves.
func (m Microarch) ForThreads(n int) Microarch {
	if m.Monolithic && n > m.Pipelines[0].Contexts {
		out := m
		out.Pipelines = []Model{m.Pipelines[0]}
		out.Pipelines[0].Contexts = n
		return out
	}
	return m
}

// String returns the canonical configuration name.
func (m Microarch) String() string { return m.Name }

// EvaluatedMicroarchs returns the six configurations of the paper's
// evaluation (Fig. 3), in the paper's order.
func EvaluatedMicroarchs() []Microarch {
	names := []string{"M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"}
	out := make([]Microarch, len(names))
	for i, n := range names {
		out[i] = MustParse(n)
	}
	return out
}
