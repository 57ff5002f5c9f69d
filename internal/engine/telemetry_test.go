package engine_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hdsmt/internal/engine"
	"hdsmt/internal/telemetry"
)

// TestCorruptStoreEntryRecovers is the regression test for silent
// cache-miss on a torn disk-store write: a truncated entry must be
// counted, the job re-run, and the entry healed by the rewrite.
func TestCorruptStoreEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	var executed atomic.Uint64
	req := testRequest(1)

	// Populate the store, then truncate the entry mid-JSON.
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := e.RunBatch(context.Background(), []engine.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	path := filepath.Join(dir, req.Key()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh engine (empty memo) hits the torn entry, re-runs, heals.
	e2, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	gotRes, err := e2.RunBatch(context.Background(), []engine.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("result after corruption = %+v, want %+v", gotRes, wantRes)
	}
	if executed.Load() != 2 {
		t.Errorf("executed %d simulations, want 2 (corrupt entry must re-run)", executed.Load())
	}
	st := e2.Stats()
	if st.CorruptStore != 1 {
		t.Errorf("CorruptStore = %d, want 1", st.CorruptStore)
	}
	if st.DiskHits != 0 {
		t.Errorf("DiskHits = %d, want 0 (corrupt entry is not a hit)", st.DiskHits)
	}

	// The rewrite healed the entry: a third engine serves it from disk.
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(healed) {
		t.Fatal("store entry not healed to valid JSON")
	}
	e3, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if _, err := e3.RunBatch(context.Background(), []engine.Request{req}); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 2 {
		t.Errorf("healed entry re-ran the simulation (executed = %d)", executed.Load())
	}
	if e3.Stats().DiskHits != 1 {
		t.Errorf("healed entry DiskHits = %d, want 1", e3.Stats().DiskHits)
	}
}

// TestEngineTelemetry checks the registry-backed counters agree with
// Stats, the Prometheus exposition carries the engine families, and the
// trace covers every job the engine handled.
func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{
		Workers: 4, Telemetry: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	reqs := testBatch(8)
	ctx := context.Background()
	if _, err := e.RunBatch(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBatch(ctx, reqs); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	checks := map[string]uint64{
		telemetry.MetricEngineSubmitted: st.Submitted,
		telemetry.MetricEngineMemoHits:  st.Hits,
		telemetry.MetricEngineExecuted:  st.Executed,
		telemetry.MetricEngineErrors:    st.Errors,
	}
	for name, want := range checks {
		if got := reg.Total(name); got != float64(want) {
			t.Errorf("%s = %v, want %d (must agree with Stats)", name, got, want)
		}
	}
	if st.Executed != 8 || st.Hits != 8 {
		t.Errorf("stats = %+v, want 8 executed and 8 memo hits", st)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		telemetry.MetricEngineCacheRatio + " 0.5",
		telemetry.MetricEngineShardDepth + `{shard="0"} 0`,
		telemetry.MetricEngineQueueDepth + " 0",
		telemetry.MetricEngineJobSeconds + "_count 8",
		telemetry.MetricEngineWorkerBusy + `{worker="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Trace coverage: one simulate span per execution, one memo-hit
	// instant per warm submission.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	var tb strings.Builder
	if err := tr.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(tb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, ev := range doc.TraceEvents {
		count[ev.Name+"/"+ev.Ph]++
	}
	if count["simulate/X"] != 8 {
		t.Errorf("simulate spans = %d, want 8", count["simulate/X"])
	}
	if count["memo-hit/i"] != 8 {
		t.Errorf("memo-hit instants = %d, want 8", count["memo-hit/i"])
	}
	if count["queue-wait/X"] != 8 {
		t.Errorf("queue-wait spans = %d, want 8", count["queue-wait/X"])
	}
	if count["thread_name/M"] != 5 {
		t.Errorf("thread_name metadata = %d, want 5 (submit + 4 workers)", count["thread_name/M"])
	}
}

// TestMemoHitTraceLabels: a traced memo hit is labeled with its request's
// config, workload and key prefix, and every hit of one result shares one
// label map — for a result executed traced, one executed untraced and one
// restored from the journal, which holds no request.
func TestMemoHitTraceLabels(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	var executed atomic.Uint64
	untraced, traced := testRequest(1), testRequest(2)
	jt := telemetry.NewJobTrace(telemetry.NewTraceContext(), 64)
	ctx := telemetry.WithSpan(context.Background(), jt, "")

	hits := func(e *engine.Engine, reqs ...engine.Request) {
		t.Helper()
		before, _ := jt.Snapshot()
		for pass := 0; pass < 2; pass++ {
			for _, req := range reqs {
				if tk, err := e.Submit(ctx, req); err != nil || !tk.CacheHit() {
					t.Fatalf("%s: submit %v, hit %v; want a memo hit", req, err, err == nil && tk.CacheHit())
				}
			}
		}
		spans, _ := jt.Snapshot()
		labels := map[string]map[string]string{}
		for _, sp := range spans[len(before):] {
			key := sp.Args["key"]
			if sp.Name != "memo-hit" || key == "" {
				t.Fatalf("span %+v, want a labeled memo-hit", sp)
			}
			if first, ok := labels[key]; ok && reflect.ValueOf(first).UnsafePointer() != reflect.ValueOf(sp.Args).UnsafePointer() {
				t.Errorf("hits of %s carry separate label maps", key)
			}
			labels[key] = sp.Args
		}
		for _, req := range reqs {
			want := map[string]string{"config": req.Cfg.Name, "workload": req.Workload.Name, "key": req.Key()[:12]}
			if got := labels[req.Key()[:12]]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: hit labels %v, want %v", req, got, want)
			}
		}
	}

	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBatch(context.Background(), []engine.Request{untraced}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBatch(ctx, []engine.Request{traced}); err != nil {
		t.Fatal(err)
	}
	hits(e, untraced, traced)
	e.Close()

	restored, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	hits(restored, untraced, traced)
	if executed.Load() != 2 {
		t.Errorf("executed %d, want 2", executed.Load())
	}
}
