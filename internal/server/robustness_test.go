package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hdsmt/internal/engine"
	"hdsmt/internal/faultinject"
	"hdsmt/internal/obslog"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
)

// durableServer builds a server with a job journal (and any extra
// options) plus its own runner, registry and httptest listener.
func durableServer(t *testing.T, journal string, opts ...server.Option) (*httptest.Server, *server.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	r, err := sim.NewRunner(engine.Options{Workers: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]server.Option{server.WithTelemetry(reg), server.WithJobJournal(journal)}, opts...)
	srv, err := server.New(r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		r.Close()
	})
	return ts, srv, reg
}

func postStatus(t *testing.T, ts *httptest.Server, spec any, headers map[string]string) (int, server.Status, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st, resp.Header
}

// tinyRun is a job spec that settles in well under a second.
func tinyRun() server.JobSpec {
	return server.JobSpec{Kind: "run", Config: "M8", Workload: "2W1", Budget: 2_000, Warmup: 1_000}
}

// slowSweep is a job spec that reliably stays running long enough to be
// canceled, snapshotted or timed out underneath. One cell only — its
// exhaustive mapping oracle still fans out to many long simulations, but
// it does not monopolize the engine queue for the whole test. In-flight
// simulations cannot be interrupted mid-run, so under the race detector
// (~15x slowdown per simulated cycle) the budget is scaled down to keep
// the post-cancel engine drain from dominating the suite's wall clock.
func slowSweep() server.JobSpec {
	budget, warmup := uint64(400_000), uint64(50_000)
	if raceDetectorOn {
		budget, warmup = 50_000, 8_000
	}
	return server.JobSpec{
		Kind: "sweep", Configs: []string{"2M4+2M2"}, Workloads: []string{"4W6"},
		Budget: budget, Warmup: warmup,
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobJournalRelistsSettledAcrossRestart: a settled job survives a
// daemon restart — the new incarnation re-lists it, serves its result
// byte-for-byte from the journal, and keeps allocating fresh ids past it.
func TestJobJournalRelistsSettledAcrossRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	ts1, srv1, _ := durableServer(t, journal)

	st := postJob(t, ts1, tinyRun())
	final := awaitJob(t, ts1, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	want := getBody(t, ts1.URL+"/jobs/"+st.ID+"/result")
	ts1.Close()
	srv1.Close()

	// Second life over the same journal.
	ts2, _, reg := durableServer(t, journal)
	var listed server.Status
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID, &listed); code != http.StatusOK {
		t.Fatalf("recovered job status = %d", code)
	}
	if listed.State != "done" || listed.Kind != "run" {
		t.Errorf("recovered job = %s/%s, want run/done", listed.Kind, listed.State)
	}
	// The live job's response body and the replayed job's are compared
	// as bytes, not as decoded values.
	if got := getBody(t, ts2.URL+"/jobs/"+st.ID+"/result"); !bytes.Equal(got, want) {
		t.Errorf("recovered result body differs:\n got %s\nwant %s", got, want)
	}
	if reg.Total(telemetry.MetricServerRecovered) == 0 {
		t.Error("no recovered-jobs metric after replay")
	}

	// Fresh submissions continue the id sequence instead of colliding
	// with the recovered job.
	st2 := postJob(t, ts2, tinyRun())
	if st2.ID == st.ID {
		t.Errorf("restarted daemon reissued id %s", st.ID)
	}
	if awaitJob(t, ts2, st2.ID).State != "done" {
		t.Error("post-restart job failed")
	}

	// DELETE-eviction is durable: evict the recovered job, restart again,
	// and it must stay gone.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts3, _, _ := durableServer(t, journal)
	if code := getJSON(t, ts3.URL+"/jobs/"+st.ID, nil); code != http.StatusNotFound {
		t.Errorf("evicted job resurrected with status %d", code)
	}
	if code := getJSON(t, ts3.URL+"/jobs/"+st2.ID, nil); code != http.StatusOK {
		t.Errorf("non-evicted job lost (status %d)", code)
	}
}

// getBody GETs url, requires 200 and returns the response body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// snapshotFile copies src (a live journal) to a fresh path, simulating
// the on-disk state a SIGKILL at this instant would leave behind.
func snapshotFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJobJournalInterruptsUnfinished: a daemon killed mid-sweep restarts
// knowing the job — it is re-listed in the terminal "interrupted" state,
// its result answers 409, cancel answers 409, and DELETE evicts it.
func TestJobJournalInterruptsUnfinished(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "jobs.jsonl")
	ts1, _, _ := durableServer(t, live)

	st := postJob(t, ts1, slowSweep())
	// The accept is journaled synchronously before the 202, so this
	// snapshot is the post-SIGKILL disk state with the job unfinished.
	snapshot := filepath.Join(dir, "jobs-crash.jsonl")
	snapshotFile(t, live, snapshot)

	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	ts2, _, reg := durableServer(t, snapshot)
	var rec server.Status
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID, &rec); code != http.StatusOK {
		t.Fatalf("crashed job not re-listed (status %d)", code)
	}
	if rec.State != "interrupted" {
		t.Fatalf("crashed job state = %q, want interrupted", rec.State)
	}
	if rec.Error == "" {
		t.Error("interrupted job has no explanatory error")
	}
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of interrupted job = %d, want 409", code)
	}
	resp, err := http.Post(ts2.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of interrupted job = %d, want 409", resp.StatusCode)
	}
	if reg.Total(telemetry.MetricServerRecovered) == 0 {
		t.Error("interrupted recovery not counted")
	}
	req2, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("DELETE interrupted job = %d", resp2.StatusCode)
	}
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID, nil); code != http.StatusNotFound {
		t.Errorf("interrupted job still listed after eviction (%d)", code)
	}
}

// TestJobJournalResumesArchivedPareto: the resumable class — an
// archive-backed pareto job orphaned by a crash is relaunched from its
// checkpoint by the next incarnation and runs to completion.
func TestJobJournalResumesArchivedPareto(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "jobs.jsonl")
	archives := filepath.Join(dir, "archives")
	ts1, _, _ := durableServer(t, live, server.WithArchiveDir(archives))

	// The snapshot below must land while the job is still unsettled, or
	// the second life replays a finished job instead of resuming one; a
	// generous budget keeps the job running past the copy under
	// parallel-test scheduling noise.
	spec := server.JobSpec{
		Kind:         "pareto",
		SearchBudget: 40,
		Seed:         7,
		MaxPipes:     2,
		Workloads:    []string{"2W7"},
		Objectives:   []string{"ipc", "area"},
		Archive:      "crashfront",
		Budget:       5_000,
		Warmup:       2_000,
	}
	st := postJob(t, ts1, spec)
	snapshot := filepath.Join(dir, "jobs-crash.jsonl")
	snapshotFile(t, live, snapshot)
	// Let the first life finish so its archive checkpoint exists and the
	// listener shuts down cleanly; the second life still sees the job
	// unsettled in its snapshot.
	awaitJob(t, ts1, st.ID)

	var logs logBuffer
	ts2, _, reg := durableServer(t, snapshot, server.WithArchiveDir(archives),
		server.WithLogger(obslog.New(&logs)))
	final := awaitJob(t, ts2, st.ID)
	if final.State != "done" {
		t.Fatalf("resumed pareto job = %s (%s), want done", final.State, final.Error)
	}
	var got struct {
		Front []json.RawMessage `json:"front"`
	}
	if code := getJSON(t, ts2.URL+"/jobs/"+st.ID+"/result", &got); code != http.StatusOK {
		t.Fatalf("resumed result = %d", code)
	}
	if len(got.Front) == 0 {
		t.Error("resumed pareto job produced an empty front")
	}
	resumed := false
	for _, s := range reg.Snapshot() {
		if s.Name == telemetry.MetricServerRecovered && s.LabelValue == "resumed" && s.Value > 0 {
			resumed = true
		}
	}
	if !resumed {
		t.Error("resume not counted in the recovery metric")
	}
	re := regexp.MustCompile(`^level=info msg="job resumed after restart" component=server job=` + st.ID +
		` tenant=anonymous request_id=\S+ archive=crashfront$`)
	if got := logs.lines("job resumed after restart"); len(got) != 1 || !re.MatchString(got[0]) {
		t.Errorf("resumption log records %q, want one matching %s", got, re)
	}
}

// TestJobJournalHealsTornTail: the satellite contract for the job
// journal — a crash-truncated final line is skipped, counted in
// telemetry, healed on disk, and the job whose settle event it carried is
// accounted for as interrupted rather than lost.
func TestJobJournalHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.jsonl")
	ts1, srv1, _ := durableServer(t, journal)
	stA := postJob(t, ts1, tinyRun())
	awaitJob(t, ts1, stA.ID)
	stB := postJob(t, ts1, tinyRun())
	awaitJob(t, ts1, stB.ID)
	ts1.Close()
	srv1.Close()

	// Tear the final line (job B's settle event) mid-byte.
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimSuffix(b, []byte("\n"))
	cut := bytes.LastIndexByte(trimmed, '\n') + 1 + (len(trimmed)-bytes.LastIndexByte(trimmed, '\n'))/2
	if err := os.WriteFile(journal, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	ts2, _, _ := durableServer(t, journal)
	metrics := scrapeMetrics(t, ts2)
	if !strings.Contains(metrics, telemetry.MetricServerJournalTorn+" 1") {
		t.Errorf("torn line not counted; metrics:\n%s", grepMetrics(metrics, "journal"))
	}
	var a server.Status
	if code := getJSON(t, ts2.URL+"/jobs/"+stA.ID, &a); code != http.StatusOK || a.State != "done" {
		t.Errorf("job A = %d/%s, want 200/done", code, a.State)
	}
	var bb server.Status
	if code := getJSON(t, ts2.URL+"/jobs/"+stB.ID, &bb); code != http.StatusOK || bb.State != "interrupted" {
		t.Errorf("job B (torn settle) = %d/%q, want 200/interrupted", code, bb.State)
	}

	// Third life: the heal truncated the torn bytes, so nothing is torn
	// anymore and job B's interruption was itself journaled.
	ts3, _, _ := durableServer(t, journal)
	metrics = scrapeMetrics(t, ts3)
	if !strings.Contains(metrics, telemetry.MetricServerJournalTorn+" 0") {
		t.Errorf("journal not healed; metrics:\n%s", grepMetrics(metrics, "journal"))
	}
	var b3 server.Status
	if code := getJSON(t, ts3.URL+"/jobs/"+stB.ID, &b3); code != http.StatusOK || b3.State != "interrupted" {
		t.Errorf("job B third life = %d/%q, want 200/interrupted", code, b3.State)
	}
}

func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestAdmissionSaturationAndQueue: with one active slot and a one-deep
// queue, the third concurrent submission is rejected with 429 and a
// Retry-After hint; as jobs settle, the queued job launches.
func TestAdmissionSaturationAndQueue(t *testing.T) {
	ts, _, reg := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"),
		server.WithAdmission(server.AdmissionConfig{MaxActive: 1, MaxPending: 1}))

	code, running, _ := postStatus(t, ts, slowSweep(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	code, queued, _ := postStatus(t, ts, tinyRun(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("second submit (queued) = %d", code)
	}
	code, _, hdr := postStatus(t, ts, tinyRun(), nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if reg.Total(telemetry.MetricServerRejected) == 0 {
		t.Error("rejection not counted")
	}

	// The queued job must still be pending (slot busy), then run to done
	// once the active job is canceled.
	var qs server.Status
	getJSON(t, ts.URL+"/jobs/"+queued.ID, &qs)
	if qs.State != "pending" {
		t.Errorf("queued job state = %q, want pending", qs.State)
	}
	resp, err := http.Post(ts.URL+"/jobs/"+running.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("cancel = %d, want 202", resp.StatusCode)
	}
	if st := awaitJob(t, ts, queued.ID); st.State != "done" {
		t.Errorf("queued job = %s (%s), want done after slot freed", st.State, st.Error)
	}
}

// TestAdmissionTenantQuota: quotas are per X-API-Key tenant — one tenant
// saturating its quota does not block another.
func TestAdmissionTenantQuota(t *testing.T) {
	ts, _, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"),
		server.WithAdmission(server.AdmissionConfig{TenantQuota: 1}))

	alice := map[string]string{"X-API-Key": "alice"}
	bob := map[string]string{"X-API-Key": "bob"}

	code, aliceJob, _ := postStatus(t, ts, slowSweep(), alice)
	if code != http.StatusAccepted {
		t.Fatalf("alice's first job = %d", code)
	}
	if aliceJob.Tenant != "alice" {
		t.Errorf("tenant = %q, want alice", aliceJob.Tenant)
	}
	code, _, hdr := postStatus(t, ts, tinyRun(), alice)
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice over quota = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After")
	}
	code, bobJob, _ := postStatus(t, ts, tinyRun(), bob)
	if code != http.StatusAccepted {
		t.Fatalf("bob blocked by alice's quota (%d)", code)
	}

	// Alice's quota frees once her job settles. Cancel before awaiting
	// bob: his tiny job sits behind the sweep's fan-out in the shared
	// engine queue until the cancellation abandons those tasks.
	resp, err := http.Post(ts.URL+"/jobs/"+aliceJob.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	awaitJob(t, ts, aliceJob.ID)
	if st := awaitJob(t, ts, bobJob.ID); st.State != "done" {
		t.Errorf("bob's job = %s (%s), want done", st.State, st.Error)
	}
	if code, st, _ := postStatus(t, ts, tinyRun(), alice); code != http.StatusAccepted {
		t.Errorf("alice after settle = %d, want 202", code)
	} else {
		awaitJob(t, ts, st.ID)
	}
}

// TestSubmitBodyCap: oversized job specs bounce with 413 before any
// decoding work.
func TestSubmitBodyCap(t *testing.T) {
	ts, _, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"),
		server.WithMaxBodyBytes(256))
	big := map[string]any{"kind": "run", "config": strings.Repeat("x", 4096)}
	code, _, _ := postStatus(t, ts, big, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec = %d, want 413", code)
	}
	if code, st, _ := postStatus(t, ts, tinyRun(), nil); code != http.StatusAccepted {
		t.Errorf("small spec after cap = %d", code)
	} else {
		awaitJob(t, ts, st.ID)
	}
}

// TestHandlerStatusCodes is the table-driven contract for the result and
// cancel endpoints across job lifecycle states.
func TestHandlerStatusCodes(t *testing.T) {
	ts, _, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"))

	doneJob := awaitJob(t, ts, postJob(t, ts, tinyRun()).ID)
	canceledSpec := postJob(t, ts, slowSweep())
	resp, err := http.Post(ts.URL+"/jobs/"+canceledSpec.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running = %d, want 202", resp.StatusCode)
	}
	canceledJob := awaitJob(t, ts, canceledSpec.ID)
	if canceledJob.State != "canceled" {
		t.Fatalf("canceled job state = %q", canceledJob.State)
	}

	for _, tc := range []struct {
		name   string
		method string
		path   string
		want   int
	}{
		{"result of unknown job", http.MethodGet, "/jobs/job-999999/result", http.StatusNotFound},
		{"cancel of unknown job", http.MethodPost, "/jobs/job-999999/cancel", http.StatusNotFound},
		{"result of done job", http.MethodGet, "/jobs/" + doneJob.ID + "/result", http.StatusOK},
		{"cancel of done job", http.MethodPost, "/jobs/" + doneJob.ID + "/cancel", http.StatusConflict},
		{"result of canceled job", http.MethodGet, "/jobs/" + canceledJob.ID + "/result", http.StatusConflict},
		{"cancel of canceled job", http.MethodPost, "/jobs/" + canceledJob.ID + "/cancel", http.StatusConflict},
		{"status of unknown job", http.MethodGet, "/jobs/job-999999", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestJobDeadline: a job past its deadline settles as failed — the work
// was not done — with the deadline named, and frees its admission slot.
func TestJobDeadline(t *testing.T) {
	ts, _, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"),
		server.WithAdmission(server.AdmissionConfig{MaxActive: 1}))
	spec := slowSweep()
	spec.TimeoutSec = 0.15
	st := postJob(t, ts, spec)
	final := awaitJob(t, ts, st.ID)
	if final.State != "failed" {
		t.Fatalf("timed-out job state = %q (%s), want failed", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("error %q does not name the deadline", final.Error)
	}
	// The slot freed: a follow-up job runs immediately.
	if st2 := awaitJob(t, ts, postJob(t, ts, tinyRun()).ID); st2.State != "done" {
		t.Errorf("job after timeout = %s, want done", st2.State)
	}
}

// TestJobDeadlineSmallerWins: a spec's timeout_sec can lower the server's
// default deadline but not raise it, and a timeout_sec no time.Duration
// holds is rejected with 400 before admission — not accepted and then
// failed at once (an overflowed, negative duration) or read as "no
// timeout" (a negative or sub-nanosecond one).
func TestJobDeadlineSmallerWins(t *testing.T) {
	ts, _, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"),
		server.WithDeadlines(map[string]time.Duration{"run": 150 * time.Millisecond, "sweep": 150 * time.Millisecond}))
	for _, sec := range []float64{-1, 1e-12, 1e10, math.MaxFloat64} {
		spec := tinyRun()
		spec.TimeoutSec = sec
		if code, st, _ := postStatus(t, ts, spec, nil); code != http.StatusBadRequest {
			t.Errorf("timeout_sec %g = %d, want 400", sec, code)
			if code == http.StatusAccepted {
				awaitJob(t, ts, st.ID)
			}
		}
	}

	spec := slowSweep()
	spec.TimeoutSec = 3600
	final := awaitJob(t, ts, postJob(t, ts, spec).ID)
	if final.State != "failed" || !strings.Contains(final.Error, "deadline") {
		t.Errorf("sweep with timeout_sec above the 150ms default = %s (%s), want failed past its deadline",
			final.State, final.Error)
	}
}

// TestDrainRejectsAndWaits: Drain flips submissions to 503 + Retry-After
// and returns once accepted jobs settle.
func TestDrainRejectsAndWaits(t *testing.T) {
	ts, srv, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"))
	st := postJob(t, ts, slowSweep())

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(t.Context()) }()

	// Drain must reject new work while waiting for the sweep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, hdr := postStatus(t, ts, tinyRun(), nil)
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Error("draining 503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never rejected while draining (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned with job still running: %v", err)
	default:
	}
	resp, err := http.Post(ts.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned after last job settled")
	}
}

// TestChaosInjectedFaultsNeverCrash: with error faults armed on every
// I/O and simulation point, submissions keep getting honest answers —
// jobs settle (done or failed), the journal survives, and a restart over
// it accounts for every job.
func TestChaosInjectedFaultsNeverCrash(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.jsonl")
	faultinject.Enable(1234, map[string]faultinject.Fault{
		faultinject.PointJournalAppend:    {Err: 0.3},
		faultinject.PointJobJournalAppend: {Err: 0.2},
		faultinject.PointSimulate:         {Err: 0.05},
	})

	ts1, srv1, _ := durableServer(t, journal)
	var ids []string
	for i := 0; i < 6; i++ {
		code, st, _ := postStatus(t, ts1, tinyRun(), nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d under faults = %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	settled := map[string]string{}
	for _, id := range ids {
		st := awaitJob(t, ts1, id)
		settled[id] = st.State
		if st.State != "done" && st.State != "failed" {
			t.Errorf("job %s under faults = %q, want done or failed", id, st.State)
		}
	}
	ts1.Close()
	srv1.Close()

	// Restart over the fault-scarred journal: every accepted job must be
	// accounted for — same settled state, or interrupted if its settle
	// event was lost to an injected journal fault.
	ts2, _, _ := durableServer(t, journal)
	var list []server.Status
	if code := getJSON(t, ts2.URL+"/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /jobs after chaos restart = %d", code)
	}
	byID := map[string]server.Status{}
	for _, st := range list {
		byID[st.ID] = st
	}
	for _, id := range ids {
		st, ok := byID[id]
		if !ok {
			// Only acceptable if the accept event itself was lost to an
			// injected append fault — the client saw a 202, but a crashed
			// write is exactly what the fault simulates. It must have
			// been a journal-append error, not silent loss.
			if faultinject.CountsFor(faultinject.PointJobJournalAppend).Errs == 0 {
				t.Errorf("job %s vanished without any journal fault", id)
			}
			continue
		}
		if st.State != settled[id] && st.State != "interrupted" {
			t.Errorf("job %s = %q after restart, want %q or interrupted", id, st.State, settled[id])
		}
	}
	if code := getJSON(t, ts2.URL+"/healthz", nil); code != http.StatusOK {
		t.Error("daemon unhealthy after chaos restart")
	}
	if m := scrapeMetrics(t, ts2); !strings.Contains(m, "hdsmt_") {
		t.Error("metrics scrape broken after chaos restart")
	}
}
