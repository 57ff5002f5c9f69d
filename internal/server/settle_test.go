package server

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdsmt/internal/obslog"
	"hdsmt/internal/telemetry"
)

// resultOf fetches GET /jobs/{id}/result from s.
func resultOf(t *testing.T, s *Server, id string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/result", nil))
	return rec.Code, rec.Body.String()
}

// TestUnencodableResultFailsJob: a job whose result has no JSON form (a
// NaN) settles as failed with the encoding error, live and after a
// restart replays its journal, instead of done with an empty /result.
func TestUnencodableResultFailsJob(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	quiet := WithLogger(obslog.New(io.Discard))
	s, err := New(nil, WithJobJournal(journal), quiet)
	if err != nil {
		t.Fatal(err)
	}
	j, ctx, err := s.newJob(JobSpec{Kind: "run"}, "t", 1, "", telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	// Journaled as the submit handler journals it, so replay knows the job.
	s.event(j, EventAccepted, "run", &jobEvent{Event: "accepted", Tenant: j.tenant, Spec: &j.spec})
	s.adm.adopt("t")
	s.runJob(ctx, j, func(context.Context, *job) (any, error) {
		return map[string]float64{"ipc": math.NaN()}, nil
	})
	check := func(when string, s *Server) {
		t.Helper()
		code, body := resultOf(t, s, j.id)
		if code != http.StatusConflict || !strings.Contains(body, "failed") || !strings.Contains(body, "NaN") {
			t.Errorf("%s: /result = %d %s, want 409 naming the failure and the NaN", when, code, body)
		}
	}
	check("live", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, err := New(nil, WithJobJournal(journal), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	check("replayed", replayed)
}

// TestReplayedDoneWithoutResultFails: a done record without a result
// replays as a failed job, so /result never answers 200 with no body.
func TestReplayedDoneWithoutResultFails(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	lines := `{"id":"job-000001","event":"accepted","spec":{"kind":"run"}}
{"id":"job-000001","event":"done","finished":"2026-01-02T03:04:05Z"}
`
	if err := os.WriteFile(journal, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(nil, WithJobJournal(journal), WithLogger(obslog.New(io.Discard)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, body := resultOf(t, s, "job-000001"); code != http.StatusConflict || !strings.Contains(body, "no result") {
		t.Errorf("/result = %d %s, want 409 saying the journal holds no result", code, body)
	}
}
