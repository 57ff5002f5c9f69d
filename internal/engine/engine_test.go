package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// fakeRunner returns a deterministic runner that derives a result from
// the request and counts executions.
func fakeRunner(executed *atomic.Uint64) engine.Runner {
	return func(_ context.Context, req engine.Request) (core.Results, error) {
		executed.Add(1)
		return core.Results{
			Config: req.Cfg.Name,
			Cycles: req.Budget,
			IPC:    float64(req.Budget) / 100,
		}, nil
	}
}

// testRequest builds the i-th of a family of distinct requests.
func testRequest(i int) engine.Request {
	return engine.Request{
		Cfg:      config.MustParse("M8"),
		Workload: workload.MustByName("2W1"),
		Mapping:  mapping.Mapping{0, 0},
		Budget:   uint64(1_000 + i),
		Warmup:   100,
	}
}

func testBatch(n int) []engine.Request {
	reqs := make([]engine.Request, n)
	for i := range reqs {
		reqs[i] = testRequest(i)
	}
	return reqs
}

func TestRequestKey(t *testing.T) {
	a, b := testRequest(1), testRequest(1)
	if a.Key() != b.Key() {
		t.Error("identical requests must share a key")
	}
	variants := []engine.Request{testRequest(2)}
	pol := testRequest(1)
	pol.Policy = "FLUSH"
	variants = append(variants, pol)
	warm := testRequest(1)
	warm.Warmup = 200
	variants = append(variants, warm)
	mapped := testRequest(1)
	mapped.Mapping = mapping.Mapping{0, 1}
	variants = append(variants, mapped)
	params := testRequest(1)
	params.Cfg.Params.RegAccessLatency = 3
	variants = append(variants, params)
	fb := testRequest(1)
	fb.Cfg.Pipelines = append([]config.Model(nil), fb.Cfg.Pipelines...)
	fb.Cfg.Pipelines[0].FetchBuf = 99
	variants = append(variants, fb)
	seen := map[string]bool{a.Key(): true}
	for i, v := range variants {
		if seen[v.Key()] {
			t.Errorf("variant %d does not change the key", i)
		}
		seen[v.Key()] = true
	}
}

// TestSampledRequestKeys pins the sampling-parameter keying: a sampled and
// a full run of the same genotype are distinct jobs, every sampling
// parameter participates in the key, and exact requests' keys — and
// therefore every existing journal — are untouched by the new fields.
func TestSampledRequestKeys(t *testing.T) {
	full := testRequest(1)
	sampled := testRequest(1)
	sampled.SamplePeriod, sampled.SampleDetail, sampled.SampleWarm = 50_000, 2_000, 1_000

	if full.Key() == sampled.Key() {
		t.Fatal("sampled and full runs of the same genotype share a key")
	}
	seen := map[string]bool{full.Key(): true, sampled.Key(): true}
	for _, mut := range []func(*engine.Request){
		func(r *engine.Request) { r.SamplePeriod = 60_000 },
		func(r *engine.Request) { r.SampleDetail = 1_000 },
		func(r *engine.Request) { r.SampleWarm = 500 },
	} {
		v := sampled
		mut(&v)
		if seen[v.Key()] {
			t.Errorf("sampling-parameter change %+v does not change the key", v.Sample())
		}
		seen[v.Key()] = true
	}

	// Exact requests must serialize without the sampling fields, so their
	// keys predate the fields' existence.
	b, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("sample")) {
		t.Errorf("exact request encoding mentions sampling: %s", b)
	}

	// And the engine must treat the two as separate jobs: both execute.
	var executed atomic.Uint64
	eng, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.RunBatch(context.Background(), []engine.Request{full, sampled, full, sampled}); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("executed %d simulations, want 2 (sampled and full memoized separately, repeats served from cache)", got)
	}
}

func TestMemoization(t *testing.T) {
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	reqs := testBatch(10)
	first, err := e.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 10 {
		t.Fatalf("cold run executed %d, want 10", got)
	}
	second, err := e.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 10 {
		t.Errorf("warm re-run executed %d new simulations, want 0", got-10)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("warm results differ from cold results")
	}
	st := e.Stats()
	if st.Hits != 10 {
		t.Errorf("hits = %d, want 10", st.Hits)
	}
	if st.Executed != 10 {
		t.Errorf("executed = %d, want 10", st.Executed)
	}
}

// TestMemoHitTickets checks that memo-hit tickets, which share one closed
// done channel, each resolve at once to their own request's result, and
// that waiting on one twice returns the same result again.
func TestMemoHitTickets(t *testing.T) {
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	reqs := testBatch(4)
	if _, err := e.RunBatch(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	var tickets []*engine.Ticket
	for round := 0; round < 2; round++ {
		for _, r := range reqs {
			tk, err := e.Submit(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !tk.CacheHit() {
				t.Fatalf("%s: warm submission is not a memo hit", r)
			}
			tickets = append(tickets, tk)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for i, tk := range tickets {
		for pass := 0; pass < 2; pass++ {
			// A resolved ticket answers even on a canceled context.
			res, err := tk.Wait(canceled)
			if err != nil || res.Cycles != reqs[i%len(reqs)].Budget {
				t.Fatalf("ticket %d pass %d: %+v, %v; want cycles %d", i, pass, res, err, reqs[i%len(reqs)].Budget)
			}
		}
	}
	if got := executed.Load(); got != uint64(len(reqs)) {
		t.Errorf("executed %d, want %d", got, len(reqs))
	}
}

func TestCoalescing(t *testing.T) {
	var executed atomic.Uint64
	gate := make(chan struct{})
	runner := func(_ context.Context, req engine.Request) (core.Results, error) {
		executed.Add(1)
		<-gate
		return core.Results{IPC: 1}, nil
	}
	e, err := engine.New(runner, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([]core.Results, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		tk, err := e.Submit(context.Background(), testRequest(0))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = tk.Wait(context.Background())
		}(i)
	}
	close(gate)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].IPC != 1 {
			t.Errorf("waiter %d got %+v", i, results[i])
		}
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("identical in-flight submissions executed %d times, want 1", got)
	}
	if st := e.Stats(); st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

// TestDeterministicAcrossWorkers pins the engine's ordering guarantee:
// batch results are in input order and bit-identical regardless of the
// worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	reqs := testBatch(16)
	var blobs [][]byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		var executed atomic.Uint64
		e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		results, err := e.RunBatch(context.Background(), reqs)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Cycles != reqs[i].Budget {
				t.Fatalf("workers=%d: result %d out of order", workers, i)
			}
		}
		b, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	for i := 1; i < len(blobs); i++ {
		if string(blobs[i]) != string(blobs[0]) {
			t.Errorf("worker count %d produced different JSON", i)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	runner := func(_ context.Context, req engine.Request) (core.Results, error) {
		if req.Budget == 1_003 {
			return core.Results{}, fmt.Errorf("boom")
		}
		return core.Results{IPC: 1}, nil
	}
	e, err := engine.New(runner, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunBatch(context.Background(), testBatch(6)); err == nil {
		t.Fatal("batch with failing job must error")
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	// Failures are not memoized: a retry re-executes.
	tk, err := e.Submit(context.Background(), testRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Error("retry of failing job must fail again (not serve a cached zero)")
	}
}

func TestJournalResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	reqs := testBatch(8)

	// Reference run, no journal.
	var refExec atomic.Uint64
	ref, err := engine.New(fakeRunner(&refExec), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunBatch(context.Background(), reqs)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the "killed" sweep completes only the first half.
	var exec1 atomic.Uint64
	e1, err := engine.New(fakeRunner(&exec1), engine.Options{Workers: 2, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.RunBatch(context.Background(), reqs[:4]); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Simulate a torn final line from the kill.
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: resume. The journaled half must not re-execute.
	var exec2 atomic.Uint64
	e2, err := engine.New(fakeRunner(&exec2), engine.Options{Workers: 2, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if st := e2.Stats(); st.Restored != 4 {
		t.Fatalf("restored = %d, want 4", st.Restored)
	}
	got, err := e2.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if exec2.Load() != 4 {
		t.Errorf("resume executed %d, want only the 4 missing jobs", exec2.Load())
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Error("resumed results differ from uninterrupted run")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Submit(context.Background(), testRequest(0)); err == nil {
		t.Error("submit on closed engine must fail")
	}
}

func TestCanceledContext(t *testing.T) {
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tk, err := e.Submit(ctx, testRequest(0))
	if err == nil {
		if _, werr := tk.Wait(context.Background()); werr == nil {
			t.Error("canceled submission must not produce a result")
		}
	}
}
