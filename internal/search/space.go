// Package search is the metaheuristic design-space optimizer: it describes
// an enriched hdSMT configuration space — pipeline multiset under an area
// budget, fetch policy, and scaled issue-queue / decoupling-buffer sizes —
// and searches it for the best performance per
// area (the paper's complexity-effectiveness objective) with pluggable
// strategies: exhaustive enumeration, seeded random sampling, greedy
// hill-climbing with restarts, and ant-colony optimization.
//
// Every point evaluation fans out through the batch-simulation engine
// (internal/engine) via a shared sim.Runner, so revisited points are
// memoization hits, concurrent evaluations saturate the worker pool, and a
// search costs only the simulations of the distinct points it actually
// reaches — a few hundred for spaces of 10⁵⁺ configurations.
package search

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/fetch"
	"hdsmt/internal/workload"
)

// noModel is the slot choice meaning "no pipeline in this slot".
const noModel = 0

// Space is a parameterized hdSMT design space. Each axis is a small
// categorical dimension; a Point picks one choice per dimension and
// decodes deterministically to a concrete machine (config.Microarch and
// fetch policy). The zero value is not useful; construct with
// NewSpace or fill the fields and call Validate.
type Space struct {
	// Models are the pipeline models choosable per slot. MaxPipes slots
	// each pick one model or "none"; at least one slot must be filled for
	// a point to be feasible.
	Models []config.Model
	// MaxPipes bounds the pipeline count per configuration.
	MaxPipes int
	// AreaCap, when positive, rejects machines above this area (mm²); 0
	// means no cap, and Validate rejects a negative one.
	AreaCap float64
	// Policies are the fetch-policy choices by name; "" means the
	// configuration's default (FLUSH monolithic, L1MCOUNT multipipeline).
	Policies []string
	// QueueScales are issue/load-queue size scales in percent (100 = the
	// paper's sizes), applied to every pipeline of the machine.
	QueueScales []int
	// FetchBufScales are decoupling-buffer size scales in percent.
	FetchBufScales []int
	// Workloads is the evaluation set; the objective is harmonic-mean IPC
	// over it, divided by the machine's area.
	Workloads []workload.Workload
}

// NewSpace returns the pure multipipeline-multiset space (M6/M4/M2 slots,
// single defaults on every enriched axis) over the given workloads. It
// holds no monolithic M8 baseline: M8 is not a multipipeline design point,
// and its special cases (thread stretching, 1-cycle register file) sit
// outside the axes this space scales. To rank M8 against a search winner,
// simulate it with sim.NewRequest on the same workloads and options, as
// cmd/explore does for its reference line. Callers widen axes by assigning
// the slice fields.
func NewSpace(maxPipes int, areaCap float64, wls []workload.Workload) Space {
	return Space{
		Models:         []config.Model{config.M6, config.M4, config.M2},
		MaxPipes:       maxPipes,
		AreaCap:        areaCap,
		Policies:       []string{""},
		QueueScales:    []int{100},
		FetchBufScales: []int{100},
		Workloads:      wls,
	}
}

// EnrichedSpace returns the full search space used by the CLI and the
// server when no axes are given explicitly: up to maxPipes M6/M4/M2
// pipelines, the three fetch policies, and ±25% issue-queue and
// decoupling-buffer sizings. With maxPipes 4 this is a 6,912-genotype
// space — far past exhaustive reach at paper budgets.
func EnrichedSpace(maxPipes int, areaCap float64, wls []workload.Workload) Space {
	sp := NewSpace(maxPipes, areaCap, wls)
	sp.Policies = []string{"", "ICOUNT2.8", "FLUSH"}
	sp.QueueScales = []int{75, 100, 125}
	sp.FetchBufScales = []int{75, 100, 125}
	return sp
}

// MaxSpaceSize bounds Validate-accepted spaces to ones whose census
// (canonical enumeration + decode) stays sub-second; a genotype count
// beyond it means a misconfigured request (e.g. an enormous MaxPipes),
// which would otherwise wedge an unbounded CPU-bound enumeration.
const MaxSpaceSize = 1 << 22

// Validate checks the space is searchable.
func (s *Space) Validate() error {
	if s.MaxPipes < 1 {
		return fmt.Errorf("search: MaxPipes %d must be at least 1", s.MaxPipes)
	}
	if s.MaxPipes > config.MaxPipelines {
		return fmt.Errorf("search: MaxPipes %d is above config.MaxPipelines (%d)", s.MaxPipes, config.MaxPipelines)
	}
	if s.AreaCap < 0 {
		return fmt.Errorf("search: area cap %v must not be negative (0 = no cap)", s.AreaCap)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("search: no pipeline models to choose from")
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("search: no workloads to evaluate on")
	}
	for _, field := range []struct {
		name string
		n    int
	}{
		{"Policies", len(s.Policies)},
		{"QueueScales", len(s.QueueScales)},
		{"FetchBufScales", len(s.FetchBufScales)},
	} {
		if field.n == 0 {
			return fmt.Errorf("search: %s has no choices (use a single-element slice for a fixed axis)", field.name)
		}
	}
	// After the axis checks, so an empty axis reports itself rather than
	// the saturated Size this check would see.
	if size := s.Size(); size > MaxSpaceSize {
		return fmt.Errorf("search: space has %d genotypes, cap is %d (lower MaxPipes or an axis)", size, int64(MaxSpaceSize))
	}
	for _, pct := range s.QueueScales {
		if pct <= 0 {
			return fmt.Errorf("search: queue scale %d%% must be positive", pct)
		}
	}
	for _, pct := range s.FetchBufScales {
		if pct <= 0 {
			return fmt.Errorf("search: fetch-buffer scale %d%% must be positive", pct)
		}
	}
	for _, name := range s.Policies {
		if name == "" {
			continue
		}
		if _, err := fetch.ByName(name); err != nil {
			return fmt.Errorf("search: %w", err)
		}
	}
	if s.AreaCap > 0 {
		smallest, err := s.smallestArea()
		if err != nil {
			return err
		}
		if s.AreaCap < smallest {
			return fmt.Errorf("search: area cap %v mm² is below the smallest machine of the space (%.2f mm²)", s.AreaCap, smallest)
		}
	}
	return nil
}

// smallestArea is the area of the space's smallest machine: one pipeline
// of some model at some queue and fetch-buffer scale. Every other machine
// adds pipelines to one of these, so a cap below it admits none.
func (s *Space) smallestArea() (float64, error) {
	smallest := math.Inf(1)
	for _, m := range s.Models {
		for _, q := range s.QueueScales {
			for _, f := range s.FetchBufScales {
				scaled, err := config.ScaleModel(m, q, f)
				if err != nil {
					return 0, fmt.Errorf("search: %w", err)
				}
				a, err := area.Total(config.NewMicroarch(scaled))
				if err != nil {
					return 0, fmt.Errorf("search: %w", err)
				}
				smallest = math.Min(smallest, a)
			}
		}
	}
	return smallest, nil
}

// Point is one genotype: a choice index per dimension, in Dims order.
type Point []int

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Dims returns the cardinality of each dimension: MaxPipes slot dimensions
// (len(Models)+1 choices each — a model or none), then the policy,
// queue-scale and fetch-buffer-scale dimensions.
func (s *Space) Dims() []int {
	dims := make([]int, 0, s.MaxPipes+3)
	for i := 0; i < s.MaxPipes; i++ {
		dims = append(dims, len(s.Models)+1)
	}
	return append(dims, len(s.Policies), len(s.QueueScales), len(s.FetchBufScales))
}

// Size returns the number of genotypes (the product of dimension
// cardinalities), saturating at MaxInt64 so absurd spaces cannot wrap
// into plausible counts. Distinct genotypes may decode to the same
// machine — slot order is canonicalized away — so this upper-bounds the
// phenotype count; it is the honest size of the space a strategy walks.
func (s *Space) Size() int64 {
	size := int64(1)
	for _, d := range s.Dims() {
		if d <= 0 || size > math.MaxInt64/int64(d) {
			return math.MaxInt64
		}
		size *= int64(d)
	}
	return size
}

// Candidate is a decoded point: a concrete machine plus its evaluation
// identity.
type Candidate struct {
	// Cfg is the assembled microarchitecture (scaled models applied).
	Cfg config.Microarch
	// Policy is the fetch-policy override ("" = configuration default).
	Policy string
	// Area is the machine's total area in mm².
	Area float64
}

// renderName is the one rendering rule for decoded points, shared by
// Candidate.Name and TrajectoryPoint.Name: the configuration name plus a
// policy-override suffix.
func renderName(config, policy string) string {
	if policy != "" {
		return config + " " + policy
	}
	return config
}

// Name renders the candidate compactly ("2M4+2M2", "3M4q75 FLUSH").
func (c Candidate) Name() string { return renderName(c.Cfg.Name, c.Policy) }

// Key is the candidate's content-addressed identity: a hex SHA-256 over
// the full decoded machine (parameters included) and its evaluation axes.
// Genotypes that decode to the same machine share a key, so drivers
// deduplicate revisits before they reach the engine.
func (c Candidate) Key() string {
	b, err := json.Marshal(struct {
		Cfg    config.Microarch `json:"cfg"`
		Policy string           `json:"policy,omitempty"`
	}{c.Cfg, c.Policy})
	if err != nil {
		// Plain data; Marshal cannot fail. Guard like engine.Request.Key.
		panic(fmt.Sprintf("search: marshaling candidate key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ErrInfeasible marks points that decode to no machine (no pipelines, or
// over the area cap). It carries no simulation cost.
type ErrInfeasible struct{ Reason string }

func (e ErrInfeasible) Error() string { return "search: infeasible point: " + e.Reason }

// Decode maps a genotype to its machine. Slot order is canonicalized (the
// multiset is what matters), scaled models are applied and a policy equal
// to the machine's default normalizes to "", so equivalent genotypes share one Candidate
// key. Returns ErrInfeasible for empty machines and area-cap violations.
func (s *Space) Decode(p Point) (Candidate, error) {
	dims := s.Dims()
	if len(p) != len(dims) {
		return Candidate{}, fmt.Errorf("search: point has %d dimensions, space has %d", len(p), len(dims))
	}
	for i, c := range p {
		if c < 0 || c >= dims[i] {
			return Candidate{}, fmt.Errorf("search: dimension %d choice %d out of range [0,%d)", i, c, dims[i])
		}
	}

	qPct := s.QueueScales[p[s.MaxPipes+1]]
	fPct := s.FetchBufScales[p[s.MaxPipes+2]]
	var models []config.Model
	for slot := 0; slot < s.MaxPipes; slot++ {
		choice := p[slot]
		if choice == noModel {
			continue
		}
		m, err := config.ScaleModel(s.Models[choice-1], qPct, fPct)
		if err != nil {
			return Candidate{}, err
		}
		models = append(models, m)
	}
	if len(models) == 0 {
		return Candidate{}, ErrInfeasible{"no pipelines selected"}
	}
	cfg := config.NewMicroarch(models...)
	a, err := area.Total(cfg)
	if err != nil {
		return Candidate{}, err
	}
	if s.AreaCap > 0 && a > s.AreaCap {
		return Candidate{}, ErrInfeasible{fmt.Sprintf("%s area %.2f mm² exceeds cap %.2f", cfg.Name, a, s.AreaCap)}
	}

	cand := Candidate{
		Cfg:    cfg,
		Policy: s.Policies[p[s.MaxPipes]],
		Area:   a,
	}
	if cand.Policy == fetch.ForConfig(cfg.Monolithic).Name() {
		cand.Policy = "" // the machine's own default: one key, one charge
	}
	return cand, nil
}

// Enumerate calls fn for every canonical genotype: slot choices are
// non-increasing (each pipeline multiset appears exactly once, empty
// machines never), crossed with every choice on the enriched axes. fn
// returning false stops the enumeration early. The visit order is
// deterministic. The Point passed to fn is reused between calls; Clone it
// before retaining.
func (s *Space) Enumerate(fn func(Point) bool) {
	dims := s.Dims()
	pt := make(Point, len(dims))
	var axes func(d int) bool
	axes = func(d int) bool {
		if d == len(pt) {
			return fn(pt)
		}
		for c := 0; c < dims[d]; c++ {
			pt[d] = c
			if !axes(d + 1) {
				return false
			}
		}
		return true
	}
	var slots func(slot, max int) bool
	slots = func(slot, max int) bool {
		if slot == s.MaxPipes {
			if pt[0] == noModel {
				return true // all slots empty: skip, keep enumerating
			}
			return axes(s.MaxPipes)
		}
		// Non-increasing choice sequences: "none" (0) only after every
		// filled slot, so each multiset has one canonical genotype.
		for c := max; c >= noModel; c-- {
			pt[slot] = c
			if !slots(slot+1, c) {
				return false
			}
		}
		return true
	}
	slots(0, len(s.Models))
}

// Candidates enumerates the space's distinct feasible machines, sorted by
// ascending area then name — the exhaustive candidate list.
func (s *Space) Candidates() []Candidate {
	seen := map[string]bool{}
	var out []Candidate
	s.Enumerate(func(p Point) bool {
		c, err := s.Decode(p)
		if err != nil {
			return true // infeasible: skip
		}
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area < out[j].Area
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// FitsWorkloads reports whether the candidate's machine has enough
// hardware contexts for every workload in the space — the feasibility
// check that decides whether a point is ever simulated.
func (s *Space) FitsWorkloads(c Candidate) bool {
	for _, w := range s.Workloads {
		if c.Cfg.ForThreads(w.Threads()).TotalContexts() < w.Threads() {
			return false
		}
	}
	return true
}

// census counts the space's distinct decodable candidates (area-capped
// and empty machines excluded) and the chargeable subset that also fits
// every workload. The driver stops open-ended strategies once every
// decodable candidate is scored, and reports progress against the
// chargeable count.
func (s *Space) census() (decodable, chargeable int) {
	seen := map[string]bool{}
	s.Enumerate(func(p Point) bool {
		c, err := s.Decode(p)
		if err != nil {
			return true
		}
		if k := c.Key(); !seen[k] {
			seen[k] = true
			decodable++
			if s.FitsWorkloads(c) {
				chargeable++
			}
		}
		return true
	})
	return decodable, chargeable
}

// CountDistinct returns the number of distinct decodable candidates in
// the space (machines that later prove context-infeasible for a workload
// still count — they are decoded, just never simulated).
func (s *Space) CountDistinct() int {
	decodable, _ := s.census()
	return decodable
}

// RandomPoint samples a genotype uniformly per dimension from rng (any
// deterministic integer source; the driver passes its seeded RNG).
func (s *Space) RandomPoint(intn func(n int) int) Point {
	dims := s.Dims()
	pt := make(Point, len(dims))
	for i, d := range dims {
		pt[i] = intn(d)
	}
	return pt
}
