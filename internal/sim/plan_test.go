package sim

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// planCells are the cells the plan-cache tests evaluate: a monolithic cell
// (one trivial run) and a four-thread multipipeline cell whose oracle is
// subsampled to keep the tests short.
func planCells() []SweepCell {
	return []SweepCell{
		{Cfg: config.MustParse("M8"), W: workload.MustByName("2W7")},
		{Cfg: config.MustParse("2M4+2M2"), W: workload.MustByName("4W6")},
	}
}

func planOptions() Options {
	return Options{Budget: 1_500, Warmup: 500, OracleBudget: 800, MaxOracle: 6}
}

func evaluateAll(t *testing.T, r *Runner, cells []SweepCell, opt Options) []Measurement {
	t.Helper()
	ms, err := r.EvaluateAll(context.Background(), cells, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestPlanCacheColdEqualsWarm: a cell evaluated by a fresh Runner, by the
// same Runner again from its cached plan, and by a second fresh Runner
// gives equal Measurements; a default-mapping run agrees with a run under
// DefaultMapping's mapping, cold and warm, exact and sampled.
func TestPlanCacheColdEqualsWarm(t *testing.T) {
	ctx := context.Background()
	r := testRunner(t)
	cold := evaluateAll(t, r, planCells(), planOptions())
	plans := len(r.plans)
	warm := evaluateAll(t, r, planCells(), planOptions())
	if len(r.plans) != plans || plans != len(planCells()) {
		t.Errorf("plans cached: %d after the cold sweep, %d after the warm one; want %d both times", plans, len(r.plans), len(planCells()))
	}
	fresh := evaluateAll(t, testRunner(t), planCells(), planOptions())
	if !reflect.DeepEqual(cold, warm) || !reflect.DeepEqual(cold, fresh) {
		t.Errorf("cold %+v\nwarm %+v\nfresh runner %+v", cold, warm, fresh)
	}

	// The same budget exact and sampled: only the sampling parameters
	// tell their run plans apart.
	exact := planOptions()
	exact.Budget = 12_000
	sampled := exact
	sampled.Sample = core.SampleParams{Period: 3_000, Detail: 500, Warm: 500}
	for _, opt := range []Options{exact, sampled} {
		for _, c := range planCells() {
			m, err := DefaultMapping(c.Cfg, c.W)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Run(ctx, c.Cfg, c.W, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := r.Run(ctx, c.Cfg, c.W, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				if mustJSON(t, got) != mustJSON(t, want) {
					t.Errorf("%s on %s, sampled %v, pass %d: the default-mapping run differs from a run under %v", c.W.Name, c.Cfg.Name, opt.Sample.Enabled(), pass, m)
				}
			}
		}
	}
	// Two run plans per cell.
	if want := 3 * len(planCells()); len(r.plans) != want {
		t.Errorf("%d plans cached, want %d", len(r.plans), want)
	}
}

// TestPlanCacheConcurrentEvaluates: concurrent evaluates of one cell on a
// cold Runner plan it concurrently and agree (run under -race).
func TestPlanCacheConcurrentEvaluates(t *testing.T) {
	r := testRunner(t)
	cells := planCells()[1:]
	var wg sync.WaitGroup
	out := make([][]Measurement, 6)
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := r.EvaluateAll(context.Background(), cells, planOptions(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = ms
		}()
	}
	wg.Wait()
	want := evaluateAll(t, testRunner(t), cells, planOptions())
	for i, ms := range out {
		if !reflect.DeepEqual(ms, want) {
			t.Errorf("evaluate %d: %+v, want %+v", i, ms, want)
		}
	}
	if len(r.plans) != 1 {
		t.Errorf("%d plans cached for one cell, want 1", len(r.plans))
	}
}

// TestPlanCacheIsolatesCallers: changing a returned Measurement's
// mappings, or the configuration and workload a caller passed in, changes
// nothing in the next evaluate of the cell.
func TestPlanCacheIsolatesCallers(t *testing.T) {
	r := testRunner(t)
	cells := planCells()
	for i := range cells {
		// The caller's own slices (MustByName shares the workload table's).
		cells[i].Cfg.Pipelines = slices.Clone(cells[i].Cfg.Pipelines)
		cells[i].W.Benchmarks = slices.Clone(cells[i].W.Benchmarks)
	}
	first := evaluateAll(t, r, cells, planOptions())
	want := evaluateAll(t, testRunner(t), planCells(), planOptions())
	for i := range first {
		for _, m := range []mapping.Mapping{first[i].BestMapping, first[i].HeurMapping, first[i].WorstMapping} {
			for k := range m {
				m[k] = 99
			}
		}
	}
	for i := range cells {
		cells[i].Cfg.Pipelines[0].Width = 1
		cells[i].W.Benchmarks[0] = "nonexistent"
	}
	if again := evaluateAll(t, r, planCells(), planOptions()); !reflect.DeepEqual(again, want) {
		t.Errorf("after the caller changed its values: %+v\nwant %+v", again, want)
	}
	// The requests a cached plan would execute on a memo miss are the ones
	// its keys name.
	checkPlanKeys(t, r)
}

// checkPlanKeys checks every request key r caches against the request's
// own Key.
func checkPlanKeys(t *testing.T, r *Runner) {
	t.Helper()
	n := 0
	for _, p := range r.plans {
		if len(p.keys) != len(p.reqs) {
			t.Fatalf("plan for %s on %s: %d keys for %d requests", p.w.Name, p.cfg.Name, len(p.keys), len(p.reqs))
		}
		for i, req := range p.reqs {
			if p.keys[i] != req.Key() {
				t.Errorf("plan for %s on %s: key %d is %s, the request's Key is %s", p.w.Name, p.cfg.Name, i, p.keys[i], req.Key())
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no plan was cached")
	}
}

// TestPlanCacheKeys: every cached request key is the request's own Key.
func TestPlanCacheKeys(t *testing.T) {
	r := testRunner(t)
	evaluateAll(t, r, planCells(), planOptions())
	for _, c := range planCells() {
		if _, err := r.Run(context.Background(), c.Cfg, c.W, nil, planOptions()); err != nil {
			t.Fatal(err)
		}
	}
	checkPlanKeys(t, r)
}

// TestPlanKeyCoversInputs: changing any Options field (found by
// reflection, so a new field fails here until the key holds it), the
// configuration's parameters, the workload or the kind of plan gets a
// plan of its own.
func TestPlanKeyCoversInputs(t *testing.T) {
	r := testRunner(t)
	c := planCells()[1]
	base := planOptions()
	base.Sample = core.SampleParams{Period: 3_000, Detail: 500, Warm: 500}
	type input struct {
		name string
		kind byte
		cfg  config.Microarch
		w    workload.Workload
		opt  Options
	}
	inputs := []input{{"base", evaluatePlan, c.Cfg, c.W, base}, {"run plan", runPlan, c.Cfg, c.W, base}}
	// vary changes one field of opt at a time, through v.
	opt := base
	var vary func(name string, v reflect.Value)
	vary = func(name string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, fname := v.Field(i), name+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				vary(fname+".", f)
				continue
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Int:
				f.SetInt(f.Int() - 1)
			default:
				t.Fatalf("Options field %s of kind %v is not covered", fname, f.Kind())
			}
			inputs = append(inputs, input{fname, evaluatePlan, c.Cfg, c.W, opt})
			opt = base
		}
	}
	vary("", reflect.ValueOf(&opt).Elem())
	slow := c.Cfg
	slow.Params.RegAccessLatency++
	inputs = append(inputs, input{"cfg params", evaluatePlan, slow, c.W, base},
		input{"workload", evaluatePlan, c.Cfg, workload.MustByName("4W5"), base})

	seen := map[*evalPlan]string{}
	for _, in := range inputs {
		p, err := r.plan(in.kind, in.cfg, in.w, in.opt)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if prev, ok := seen[p]; ok {
			t.Errorf("%s shares the plan of %s", in.name, prev)
		}
		seen[p] = in.name
	}
}
