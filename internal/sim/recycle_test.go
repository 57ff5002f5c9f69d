package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/mapping"
	"hdsmt/internal/perf"
	"hdsmt/internal/workload"
)

// runFresh simulates req on a processor built from nothing.
func runFresh(t *testing.T, req engine.Request) core.Results {
	t.Helper()
	p, err := newProcessor(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var r core.Results
	if sp := req.Sample(); sp.Enabled() {
		r, err = p.RunSampled(req.Budget, sp)
	} else {
		r, err = p.Run(req.Budget)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecycledRunsMatchFresh runs a random sequence of cells — machines,
// workloads, budgets, warm-ups, policies and sampled runs — twice: each on the previous cell's processor (newProcessor with
// the old one, as simulate does), and through simulate and its pool. Every
// result must equal the one a freshly built processor gives.
func TestRecycledRunsMatchFresh(t *testing.T) {
	configs := []string{"M8", "2M4", "4M2", "2M4+2M2", "1M6+2M4+2M2"}
	var workloads []workload.Workload
	for _, w := range workload.All() {
		if w.Threads() <= 4 {
			workloads = append(workloads, w)
		}
	}
	policies := []string{"", "ICOUNT2.8", "FLUSH", "L1MCOUNT"}
	rng := rand.New(rand.NewSource(23))
	var old *core.Processor
	for i := 0; i < 14; i++ {
		cfg := config.MustParse(configs[rng.Intn(len(configs))])
		w := workloads[rng.Intn(len(workloads))]
		if cfg.ForThreads(w.Threads()).TotalContexts() < w.Threads() {
			continue
		}
		opt := Options{Budget: uint64(500 + rng.Intn(2_500)), Warmup: uint64(rng.Intn(1_000))}
		if rng.Intn(4) == 0 {
			opt = Options{Budget: 800, Sample: core.SampleParams{Period: 4_000, Detail: 400, Warm: 400}}
		}
		req, err := NewRequest(cfg, w, opt, policies[rng.Intn(len(policies))])
		if err != nil {
			t.Fatal(err)
		}
		want := runFresh(t, req)

		p, err := newProcessor(old, req)
		if err != nil {
			t.Fatal(err)
		}
		var got core.Results
		if sp := req.Sample(); sp.Enabled() {
			got, err = p.RunSampled(req.Budget, sp)
		} else {
			got, err = p.Run(req.Budget)
		}
		if err != nil {
			t.Fatal(err)
		}
		old = p
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d (%s): recycled processor diverges from a new one\nrecycled: %+v\nnew:      %+v", i, req, got, want)
		}
		pooled, err := simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled, want) {
			t.Errorf("cell %d (%s): pooled simulation diverges from a new processor\npooled: %+v\nnew:    %+v", i, req, pooled, want)
		}
	}
}

// TestPooledRunnerMatchesSequential sweeps every mapping of the perf
// basket's cells twice, each time on a fresh 4-worker Runner (so every job
// executes and the workers draw processors from the shared pool
// concurrently), and checks each Results against sequential sim.Run. Run
// under the race detector, it is the pool's concurrency test.
func TestPooledRunnerMatchesSequential(t *testing.T) {
	cfg := config.MustParse(perf.BasketConfig)
	opt := Options{Budget: 1_000, Warmup: 500}
	var reqs []engine.Request
	for _, name := range perf.BasketWorkloads() {
		w := workload.MustByName(name)
		for _, m := range mapping.Enumerate(cfg, w.Threads()) {
			reqs = append(reqs, newRequest(cfg, w, m, opt.Budget, opt.Warmup))
		}
	}
	want := make([]core.Results, len(reqs))
	for i, req := range reqs {
		r, err := Run(req.Cfg, req.Workload, req.Mapping, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for sweep := 0; sweep < 2; sweep++ {
		r, err := NewRunner(engine.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Engine().RunBatch(context.Background(), reqs)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if executed := r.Stats().Executed; executed != uint64(len(reqs)) {
			t.Fatalf("sweep %d executed %d of %d jobs", sweep, executed, len(reqs))
		}
		for i := range reqs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("sweep %d, %s: concurrent pooled run diverges from sequential sim.Run\npooled:     %+v\nsequential: %+v",
					sweep, reqs[i], got[i], want[i])
			}
		}
	}
}
