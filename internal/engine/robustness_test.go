package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hdsmt/internal/core"
	"hdsmt/internal/engine"
	"hdsmt/internal/faultinject"
	"hdsmt/internal/obslog"
)

// TestJournalReplayHealsTruncatedLine pins the crash-recovery contract of
// the checkpoint journal: a process killed mid-append leaves a torn final
// line; the replay must restore every complete entry, count the torn one
// in telemetry, and re-run (then re-append) the lost job.
func TestJournalReplayHealsTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var executed atomic.Uint64

	// First life: run three jobs, journaling all of them.
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBatch(context.Background(), testBatch(3)); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// The crash: truncate the file mid-way through the final line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}
	torn := strings.Join(lines[:2], "") + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: replay heals — two entries restored, one torn line
	// counted, and only the lost job re-executes.
	executed.Store(0)
	e2, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st := e2.Stats()
	if st.Restored != 2 {
		t.Errorf("Restored = %d, want 2", st.Restored)
	}
	if st.JournalTruncated != 1 {
		t.Errorf("JournalTruncated = %d, want 1", st.JournalTruncated)
	}
	if _, err := e2.RunBatch(context.Background(), testBatch(3)); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("re-run executed %d simulations, want 1 (the torn entry only)", got)
	}

	// Third life: the re-append healed the file — nothing torn, nothing
	// to execute.
	e3, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if st := e3.Stats(); st.JournalTruncated != 0 || st.Restored != 3 {
		t.Errorf("after heal: Restored = %d JournalTruncated = %d, want 3/0", st.Restored, st.JournalTruncated)
	}
}

// TestRunnerPanicFailsOneJobOnly: a panicking simulation must fail its
// own job with a descriptive error — counted in Stats — while the worker
// survives to execute subsequent jobs.
func TestRunnerPanicFailsOneJobOnly(t *testing.T) {
	var executed atomic.Uint64
	runner := func(ctx context.Context, req engine.Request) (core.Results, error) {
		if req.Budget == 1_001 { // the second of testBatch's requests
			panic("injected core bug")
		}
		return fakeRunner(&executed)(ctx, req)
	}
	e, err := engine.New(runner, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tickets := make([]*engine.Ticket, 3)
	for i, req := range testBatch(3) {
		if tickets[i], err = e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	var failures int
	for i, tk := range tickets {
		_, err := tk.Wait(context.Background())
		if i == 1 {
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Errorf("panicking job error = %v, want a runner-panic error", err)
			}
			failures++
			continue
		}
		if err != nil {
			t.Errorf("job %d failed: %v (panic must not poison other jobs)", i, err)
		}
	}
	st := e.Stats()
	if st.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", st.Panics)
	}
	if st.Errors != 1 {
		t.Errorf("Stats.Errors = %d, want 1", st.Errors)
	}
	if executed.Load() != 2 {
		t.Errorf("executed %d jobs after the panic, want 2", executed.Load())
	}
}

// TestFaultInjectionStoreAndJournal: with error faults armed on the
// journal's append point, a sweep still completes — a failed append
// degrades to best-effort — and nothing crashes.
func TestFaultInjectionStoreAndJournal(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	dir := t.TempDir()
	faultinject.Enable(99, map[string]faultinject.Fault{
		faultinject.PointJournalAppend: {Err: 0.5},
	})

	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{
		Workers:     4,
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := testBatch(40)
	results, err := e.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("sweep under injected I/O faults failed: %v", err)
	}
	for i, res := range results {
		if res.Cycles != reqs[i].Budget {
			t.Fatalf("result %d corrupted under fault injection: %+v", i, res)
		}
	}
	e.Close()

	if faultinject.CountsFor(faultinject.PointJournalAppend).Errs == 0 {
		t.Error("no I/O fault ever triggered — the chaos run tested nothing")
	}

	// A second engine over the same (partially written) journal
	// still serves every result correctly with faults still armed.
	e2, err := engine.New(fakeRunner(&executed), engine.Options{
		Workers:     4,
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	results, err = e2.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("re-run under injected I/O faults failed: %v", err)
	}
	for i, res := range results {
		if res.Cycles != reqs[i].Budget {
			t.Fatalf("re-run result %d corrupted: %+v", i, res)
		}
	}
}

// TestJournalAppendFailureIsLogged: an append that still fails after its
// retries costs the job only its checkpoint. The job succeeds, and the
// engine logs a Warn naming the key prefix and the submitting request.
func TestJournalAppendFailureIsLogged(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	faultinject.Enable(1, map[string]faultinject.Fault{faultinject.PointJournalAppend: {Err: 1}})
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var logs bytes.Buffer
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{
		Workers: 1, JournalPath: path, Log: obslog.New(&logs, obslog.WithJSON()),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(3)
	ctx := obslog.WithRequestID(context.Background(), "req-journal-full")
	tk, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Wait(ctx); err != nil || res.Cycles != req.Budget {
		t.Fatalf("job under a failing journal = %+v, %v; want success", res, err)
	}
	e.Close()

	if c := faultinject.CountsFor(faultinject.PointJournalAppend); c.Errs < 2 {
		t.Errorf("append point failed %d times, want every retry to hit it", c.Errs)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) != 0 {
		t.Errorf("journal holds %q (%v), want nothing written", b, err)
	}
	var rec struct {
		Level     string `json:"level"`
		Msg       string `json:"msg"`
		Key       string `json:"key"`
		RequestID string `json:"request_id"`
		Err       string `json:"err"`
	}
	if err := json.Unmarshal(logs.Bytes(), &rec); err != nil {
		t.Fatalf("want exactly one log record, got %q: %v", logs.String(), err)
	}
	if rec.Level != "warn" || !strings.Contains(rec.Msg, "journal") || rec.Key != req.Key()[:12] ||
		rec.RequestID != "req-journal-full" || !strings.Contains(rec.Err, faultinject.PointJournalAppend) {
		t.Errorf("log record = %+v, want a warn naming key %s, the request ID and the injected error", rec, req.Key()[:12])
	}
}

// TestFaultInjectionSimulatePanic: an injected simulate panic is contained
// exactly like an organic one.
func TestFaultInjectionSimulatePanic(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	faultinject.Enable(7, map[string]faultinject.Fault{
		faultinject.PointSimulate: {Panic: 1},
	})
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Submit(context.Background(), testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Wait = %v, want a runner-panic error", err)
	}
	if st := e.Stats(); st.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", st.Panics)
	}

	// Disarm and the same engine executes normally.
	faultinject.Disable()
	tk, err = e.Submit(context.Background(), testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("post-disarm job failed: %v", err)
	}
}

// TestFaultInjectionSimulateError: injected simulate errors fail jobs
// recognizably (errors.Is(ErrInjected)) without crashing the engine.
func TestFaultInjectionSimulateError(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	faultinject.Enable(7, map[string]faultinject.Fault{
		faultinject.PointSimulate: {Err: 1},
	})
	var executed atomic.Uint64
	e, err := engine.New(fakeRunner(&executed), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Submit(context.Background(), testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	_, werr := tk.Wait(context.Background())
	if !errors.Is(werr, faultinject.ErrInjected) {
		t.Fatalf("Wait = %v, want ErrInjected", werr)
	}
	if executed.Load() != 0 {
		t.Errorf("runner ran %d times under err=1 injection, want 0", executed.Load())
	}
}
