package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/mapping"
	"hdsmt/internal/pareto"
	"hdsmt/internal/search"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// tinyOptions mirrors the sim package's fast test budgets.
func tinyOptions() sim.Options {
	return sim.Options{Budget: 3_000, Warmup: 2_000, OracleBudget: 1_500}
}

func newTestServer(t *testing.T) (*httptest.Server, *sim.Runner) {
	t.Helper()
	r, err := sim.NewRunner(engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(r)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return ts, r
}

func postJob(t *testing.T, ts *httptest.Server, spec any) server.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("job id missing")
	}
	return st
}

func awaitJob(t *testing.T, ts *httptest.Server, id string) server.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "canceled", "interrupted":
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not settle in time")
	return server.Status{}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestSweepRoundTrip pins the serving acceptance criterion: a sweep
// submitted over HTTP, polled to completion, yields byte-identical
// measurements to calling the sim package directly.
func TestSweepRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	opt := tinyOptions()
	configs := []string{"M8", "2M4+2M2"}

	st := postJob(t, ts, server.JobSpec{
		Kind:         "sweep",
		Configs:      configs,
		Workloads:    []string{"2W7"},
		Budget:       opt.Budget,
		Warmup:       opt.Warmup,
		OracleBudget: opt.OracleBudget,
	})
	if st.Progress.Total != 2 {
		t.Errorf("total = %d, want 2 cells", st.Progress.Total)
	}
	final := awaitJob(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	if final.Progress.Done != final.Progress.Total {
		t.Errorf("progress %+v not complete", final.Progress)
	}

	var got server.SweepResult
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &got); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}

	// Direct reference on a fresh runner with identical options.
	direct, err := sim.NewRunner(engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want := server.SweepResult{}
	for _, name := range configs {
		m, err := direct.Evaluate(context.Background(), config.MustParse(name),
			workload.MustByName("2W7"), opt)
		if err != nil {
			t.Fatal(err)
		}
		want.Measurements = append(want.Measurements, m)
	}

	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("HTTP sweep differs from direct sim:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// The engine behind the server must expose its counters.
	var stats engine.Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if stats.Executed == 0 {
		t.Error("server executed nothing")
	}
}

func TestRunJobMatchesDirectRun(t *testing.T) {
	ts, _ := newTestServer(t)
	opt := tinyOptions()

	st := postJob(t, ts, server.JobSpec{
		Kind:     "run",
		Config:   "2M4+2M2",
		Workload: "2W7",
		Mapping:  []int{0, 1},
		Budget:   opt.Budget,
		Warmup:   opt.Warmup,
	})
	final := awaitJob(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	var got core.Results
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &got); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}

	want, err := sim.Run(config.MustParse("2M4+2M2"), workload.MustByName("2W7"),
		mapping.Mapping{0, 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("HTTP run differs from direct run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestSharedCacheAcrossJobs(t *testing.T) {
	ts, _ := newTestServer(t)
	opt := tinyOptions()
	spec := server.JobSpec{
		Kind: "evaluate", Config: "2M4+2M2", Workload: "2W9",
		Budget: opt.Budget, Warmup: opt.Warmup, OracleBudget: opt.OracleBudget,
	}

	first := awaitJob(t, ts, postJob(t, ts, spec).ID)
	if first.State != "done" {
		t.Fatalf("first job: %s", first.Error)
	}
	var stats engine.Stats
	getJSON(t, ts.URL+"/stats", &stats)
	executed := stats.Executed

	second := awaitJob(t, ts, postJob(t, ts, spec).ID)
	if second.State != "done" {
		t.Fatalf("second job: %s", second.Error)
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Executed != executed {
		t.Errorf("resubmitted job executed %d new simulations, want 0", stats.Executed-executed)
	}
}

// TestSubmitRejectsUnknownField: a spec field JobSpec does not have — the
// remap axis searches no longer take, a misspelling — is a 400 naming it,
// not a 202 for a job that silently ignores it. No job is created.
func TestSubmitRejectsUnknownField(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"kind":"search","remap_intervals":[2048],"strategy":"aco","search_budget":5,"workloads":["2W7"],"max_pipes":2}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, `"remap_intervals"`) {
		t.Errorf("unknown field: %d %q, want 400 naming remap_intervals", resp.StatusCode, msg.Error)
	}
	var jobs []server.Status
	getJSON(t, ts.URL+"/jobs", &jobs)
	if len(jobs) != 0 {
		t.Errorf("rejected spec left %d jobs", len(jobs))
	}
}

func TestValidationAndErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	bad := []any{
		server.JobSpec{Kind: "nope"},
		server.JobSpec{Kind: "run"},                                                           // missing config/workload
		server.JobSpec{Kind: "run", Config: "M99", Workload: "2W1"},                           // bad config
		server.JobSpec{Kind: "run", Config: "M8", Workload: "9W9"},                            // bad workload
		server.JobSpec{Kind: "run", Config: "2M4+2M2", Workload: "2W1", Mapping: []int{7, 7}}, // bad mapping
		server.JobSpec{Kind: "run", Config: "2M4+2M2", Workload: "4W6", Mapping: []int{0}},    // short mapping
		server.JobSpec{Kind: "sweep", Configs: []string{"bogus"}},
		server.JobSpec{Kind: "run", Config: "3000000000M2", Workload: "2W1"},          // above config.MaxPipelines
		server.JobSpec{Kind: "sweep", Configs: []string{"M8", "3000000000M2"}},        // above config.MaxPipelines
		server.JobSpec{Kind: "search", Strategy: "aco", SearchBudget: 5, AreaCap: -5}, // negative area cap
		server.JobSpec{Kind: "pareto", SearchBudget: 5, ArchiveCap: -3},               // negative archive cap
	}
	for i, spec := range bad {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d accepted with %d", i, resp.StatusCode)
		}
	}

	// The monolithic baseline stretches to 6 threads (paper §3): an
	// explicit all-zero mapping for a 6-thread workload must be accepted.
	postJob(t, ts, server.JobSpec{
		Kind: "run", Config: "M8", Workload: "6W1",
		Mapping: []int{0, 0, 0, 0, 0, 0}, Budget: 2_000, Warmup: 1_000,
	})

	if code := getJSON(t, ts.URL+"/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/job-999999/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}

	// Listing returns every submitted job.
	st := postJob(t, ts, server.JobSpec{Kind: "run", Config: "M8", Workload: "2W1", Budget: 2_000, Warmup: 1_000})
	awaitJob(t, ts, st.ID)
	var list []server.Status
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list) != 2 {
		t.Errorf("GET /jobs = %d with %d jobs, want 2", code, len(list))
	}

	// DELETE on a finished job evicts it.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE finished job = %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID, nil); code != http.StatusNotFound {
		t.Errorf("evicted job still present (status %d)", code)
	}
}

func TestResultBeforeDone(t *testing.T) {
	ts, _ := newTestServer(t)
	// A sweep big enough to still be running on first poll.
	st := postJob(t, ts, server.JobSpec{
		Kind: "sweep", Configs: []string{"2M4+2M2"}, Workloads: []string{"4W6"},
		Budget: 3_000, Warmup: 2_000, OracleBudget: 1_500,
	})
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Errorf("result while running = %d, want 409 (or 200 if already done)", resp.StatusCode)
	}
	final := awaitJob(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
}

// TestSearchJobRoundTrip exercises the search job kind end to end: submit
// an ACO search over a small enriched space, poll to done, fetch the
// trajectory, and check it matches a direct driver run on the same seed.
func TestSearchJobRoundTrip(t *testing.T) {
	ts, r := newTestServer(t)
	spec := server.JobSpec{
		Kind:         "search",
		Strategy:     "aco",
		SearchBudget: 10,
		Seed:         7,
		MaxPipes:     3,
		QueueScales:  []int{75, 100},
		Workloads:    []string{"2W7"},
		Budget:       2_000,
		Warmup:       1_000,
	}
	st := postJob(t, ts, spec)
	st = awaitJob(t, ts, st.ID)
	if st.State != "done" {
		t.Fatalf("search job state = %s (%s)", st.State, st.Error)
	}
	if st.Progress.Done != 10 || st.Progress.Total != 10 {
		t.Errorf("progress = %+v, want 10/10", st.Progress)
	}

	var got search.Result
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &got); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if got.Best == nil || len(got.Trajectory) == 0 {
		t.Fatalf("search result lacks a best point or trajectory: %+v", got)
	}
	if got.Strategy != "aco" || got.Evaluations != 10 {
		t.Errorf("result = strategy %q evaluations %d, want aco/10", got.Strategy, got.Evaluations)
	}

	// The same search run directly on the server's runner must agree on
	// the incumbent (the engine cache is warm; scores are memoized, not
	// re-derived, so equality is exact).
	sp := search.NewSpace(3, 0, []workload.Workload{workload.MustByName("2W7")})
	sp.QueueScales = []int{75, 100}
	direct, err := search.NewDriver(r).Search(context.Background(), sp, search.ACO{},
		search.Options{Budget: 10, Seed: 7, Sim: sim.Options{Budget: 2_000, Warmup: 1_000}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Best.Config != got.Best.Config || direct.Best.Metric("per_area") != got.Best.Metric("per_area") {
		t.Errorf("HTTP search best %s (%.6f) != direct best %s (%.6f)",
			got.Best.Config, got.Best.Metric("per_area"), direct.Best.Config, direct.Best.Metric("per_area"))
	}
}

// TestSearchJobCancel covers the cancel path: DELETE on a running search
// settles it as canceled.
func TestSearchJobCancel(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := server.JobSpec{
		Kind:         "search",
		Strategy:     "random",
		SearchBudget: 100_000, // far more than the space holds: runs until canceled
		MaxPipes:     4,
		Workloads:    []string{"4W6"},
		Budget:       200_000, // slow cells so the cancel lands mid-run
		Warmup:       10_000,
	}
	st := postJob(t, ts, spec)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st = awaitJob(t, ts, st.ID)
	if st.State != "canceled" {
		t.Errorf("state after DELETE = %s, want canceled", st.State)
	}
}

// TestSearchJobValidation rejects malformed search specs at submit time.
func TestSearchJobValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, spec := range map[string]server.JobSpec{
		"unknown strategy": {Kind: "search", Strategy: "genetic", SearchBudget: 5},
		"missing budget":   {Kind: "search", Strategy: "aco"},
		"bad workload":     {Kind: "search", Strategy: "aco", SearchBudget: 5, Workloads: []string{"9W9"}},
		"bad policy":       {Kind: "search", Strategy: "aco", SearchBudget: 5, Policies: []string{"NOPE"}},
		"bad scale":        {Kind: "search", Strategy: "aco", SearchBudget: 5, QueueScales: []int{0}},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestParetoJobRoundTrip: the multi-objective job kind end to end —
// submit, poll, fetch a result whose front is non-empty and mutually
// non-dominated, and agree with the same search run directly on the
// server's runner.
func TestParetoJobRoundTrip(t *testing.T) {
	ts, r := newTestServer(t)
	spec := server.JobSpec{
		Kind:         "pareto",
		SearchBudget: 8,
		Seed:         7,
		MaxPipes:     2,
		Workloads:    []string{"2W7"},
		Objectives:   []string{"ipc", "area"},
		Budget:       2_000,
		Warmup:       1_000,
	}
	st := postJob(t, ts, spec)
	st = awaitJob(t, ts, st.ID)
	if st.State != "done" {
		t.Fatalf("pareto job state = %s (%s)", st.State, st.Error)
	}
	if st.Kind != "pareto" {
		t.Errorf("kind = %q", st.Kind)
	}

	var got search.Result
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/result", &got); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if got.Strategy != "nsga2" {
		t.Errorf("default strategy = %q, want nsga2", got.Strategy)
	}
	if len(got.Front) == 0 || len(got.Hypervolume) == 0 {
		t.Fatalf("pareto result lacks a front or hypervolume trajectory: %+v", got)
	}
	if len(got.Objectives) != 2 || got.Objectives[0] != "ipc" || got.Objectives[1] != "area" {
		t.Errorf("objectives = %v", got.Objectives)
	}
	objs, err := pareto.Parse("ipc,area")
	if err != nil {
		t.Fatal(err)
	}
	if err := search.CheckFront(objs, got.Front); err != nil {
		t.Error(err)
	}

	sp := search.NewSpace(2, 0, []workload.Workload{workload.MustByName("2W7")})
	direct, err := search.NewDriver(r).Search(context.Background(), sp, search.NSGA2{},
		search.Options{Budget: 8, Seed: 7, Sim: sim.Options{Budget: 2_000, Warmup: 1_000}, Objectives: objs})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Front) != len(got.Front) {
		t.Errorf("front sizes differ: HTTP %d vs direct %d", len(got.Front), len(direct.Front))
	}
}

// TestParetoJobValidation rejects malformed pareto specs at submit time.
func TestParetoJobValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, spec := range map[string]server.JobSpec{
		"missing budget":      {Kind: "pareto"},
		"one objective":       {Kind: "pareto", SearchBudget: 5, Objectives: []string{"ipc"}},
		"unknown objective":   {Kind: "pareto", SearchBudget: 5, Objectives: []string{"ipc", "nope"}},
		"duplicate objective": {Kind: "pareto", SearchBudget: 5, Objectives: []string{"ipc", "ipc"}},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}
