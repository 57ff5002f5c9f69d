package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"hdsmt/internal/cache"
	"hdsmt/internal/config"
	"hdsmt/internal/fetch"
)

// runStep is one simulation of a recycling sequence.
type runStep struct {
	cfg     string
	names   []string
	mapping []int
	opts    []Option
	budget  uint64
	sampled bool
	// hier installs a hierarchy of the test's own (WithHierarchy).
	hier bool
	// stepOnly, when positive, steps that many cycles instead of running
	// to the budget, so the next Renew takes over a processor mid-run.
	stepOnly int
}

// observed is everything a finished processor reports.
type observed struct {
	Results Results
	Stats   Stats
	Work    Work
	Cycle   uint64
	Caches  [3]cache.Stats
	TLBs    [2]cache.Stats
	Pred    any
	BTB     any
	RegFile any
}

func observe(t *testing.T, p *Processor, s runStep) observed {
	t.Helper()
	var r Results
	var err error
	switch {
	case s.stepOnly > 0:
		for i := 0; i < s.stepOnly; i++ {
			p.step()
		}
	case s.sampled:
		r, err = p.RunSampled(s.budget, SampleParams{Period: 4_000, Detail: 400, Warm: 400})
	default:
		r, err = p.Run(s.budget)
	}
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hierarchy()
	return observed{
		Results: r, Stats: p.GlobalStats(), Work: p.Work(), Cycle: p.Cycle(),
		Caches: [3]cache.Stats{h.L1I.Stats(), h.L1D.Stats(), h.L2.Stats()},
		TLBs:   [2]cache.Stats{h.ITLB.Stats(), h.DTLB.Stats()},
		Pred:   p.Predictor().Stats(), BTB: p.btb.Stats(), RegFile: p.rf.Stats(),
	}
}

// builtState summarizes the state a new processor starts in: occupancy
// of every buffer, queue, ring and pool, and the stacks and counters a
// reused one must have emptied.
func builtState(p *Processor) []int {
	st := []int{p.rf.FreeCount(), len(p.freeUOps), p.readyCount, p.doneCount, int(p.cycle), int(p.dispatchSeq)}
	for i, t := range p.threads {
		st = append(st, t.rob.Len(), len(t.buf), p.ras[i].Depth(), t.pipe, int(t.committed))
	}
	for _, b := range p.pipes {
		st = append(st, b.FetchBuf.Len(), len(b.Threads))
		for _, q := range b.Queues {
			st = append(st, q.Len(), q.ReadyLen())
		}
	}
	for _, r := range []eventRing{p.completions, p.flushAt, p.issueTimers} {
		n := 0
		for _, slot := range r {
			n += len(slot)
		}
		st = append(st, len(r), n)
	}
	for _, ws := range p.waiters {
		st = append(st, len(ws))
	}
	return st
}

// deepCopy snapshots r through JSON, so later writes to storage r shares
// would show as a difference.
func deepCopy(t *testing.T, r Results) Results {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Results
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRenewMatchesNew runs a sequence of simulations of changing shape —
// thread count, pipelines, stepping path, policy, hierarchy override,
// sampled runs, and a processor abandoned mid-run — each on
// the previous one's processor through Renew, and checks that every one
// reports exactly what a processor from New reports: Results, global and
// per-structure statistics, work counts and clock. It also checks that no
// Results changes after its processor is renewed.
func TestRenewMatchesNew(t *testing.T) {
	steps := []runStep{
		{cfg: "2M4+2M2", names: []string{"gzip", "mcf"}, mapping: []int{0, 1}, opts: []Option{WithWarmup(1_000)}, budget: 3_000},
		{cfg: "2M4+2M2", names: []string{"mcf", "twolf"}, mapping: []int{0, 2}, opts: []Option{WithReferenceStepping()}, budget: 2_000},
		{cfg: "M8", names: []string{"gzip", "mcf"}, mapping: []int{0, 0}, budget: 3_000},
		{cfg: "2M4+2M2", names: []string{"gcc", "vpr"}, mapping: []int{0, 1}, stepOnly: 700},
		{cfg: "1M6+2M4+2M2", names: []string{"gcc", "vpr", "eon"}, mapping: []int{0, 1, 2}, opts: []Option{WithPolicy(fetch.ICount{})}, budget: 2_000},
		{cfg: "2M4+2M2", names: []string{"gzip", "twolf"}, mapping: []int{0, 2}, sampled: true, budget: 800},
		{cfg: "M8", names: []string{"mcf"}, mapping: []int{0}, hier: true, budget: 2_000},
		{cfg: "4M2", names: []string{"gzip", "mcf", "gcc", "twolf"}, mapping: []int{0, 1, 2, 3}, budget: 1_500},
		{cfg: "2M4+2M2", names: []string{"gzip", "mcf"}, mapping: []int{0, 1}, opts: []Option{WithWarmup(1_000)}, budget: 3_000},
	}
	var (
		reused   *Processor
		prevRes  Results
		prevCopy Results
	)
	for i, s := range steps {
		// Each processor gets a hierarchy override of its own.
		opts := func() []Option {
			if s.hier {
				return append([]Option{WithHierarchy(cache.NewHierarchy())}, s.opts...)
			}
			return s.opts
		}
		fresh, err := New(config.MustParse(s.cfg), testSpecs(t, s.names...), s.mapping, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		renewed, err := Renew(reused, config.MustParse(s.cfg), testSpecs(t, s.names...), s.mapping, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && renewed != reused {
			t.Fatalf("step %d: Renew built a new processor instead of reusing the old one", i)
		}
		if got, want := builtState(renewed), builtState(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: renewed processor starts in state %v, a new one in %v", i, got, want)
		}
		want, got := observe(t, fresh, s), observe(t, renewed, s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s %v): renewed processor diverges from a new one\nrenewed: %+v\nnew:     %+v", i, s.cfg, s.names, got, want)
		}
		if i > 0 && !reflect.DeepEqual(prevRes, prevCopy) {
			t.Errorf("step %d: renewing changed the previous run's Results\nnow:    %+v\nbefore: %+v", i, prevRes, prevCopy)
		}
		prevRes, prevCopy = got.Results, deepCopy(t, got.Results)
		reused = renewed
	}
}

// TestRenewRejectsLikeNew: Renew validates exactly as New does.
func TestRenewRejectsLikeNew(t *testing.T) {
	p, err := New(config.MustParse("M8"), testSpecs(t, "gzip"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(500); err != nil {
		t.Fatal(err)
	}
	if _, err := Renew(p, config.MustParse("2M4+2M2"), testSpecs(t, "gzip", "mcf"), []int{2, 2}); err == nil {
		t.Error("Renew accepted two threads on a one-context pipeline")
	}
}
