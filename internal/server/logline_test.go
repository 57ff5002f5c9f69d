package server_test

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hdsmt/internal/obslog"
	"hdsmt/internal/server"
)

// logBuffer collects a logger's output for concurrent reads.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// lines returns the records whose message is msg, without their
// timestamps.
func (l *logBuffer) lines(msg string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range strings.Split(l.b.String(), "\n") {
		if _, rest, ok := strings.Cut(line, " "); ok && strings.Contains(rest, `msg="`+msg+`"`) {
			out = append(out, rest)
		}
	}
	return out
}

// TestSettledLogLines pins the "job settled" records, which the server
// writes from the journaled settle record: one per job, info for a done
// job and warn with the error for any other end, fields in a fixed order.
func TestSettledLogLines(t *testing.T) {
	var logs logBuffer
	ts, _, _ := durableServer(t, filepath.Join(t.TempDir(), "jobs.jsonl"),
		server.WithLogger(obslog.New(&logs)))

	// A 1 ns deadline has passed before the job runs, so it fails.
	late := tinyRun()
	late.Budget++
	late.TimeoutSec = 1e-9
	failed := postJob(t, ts, late)
	if st := awaitJob(t, ts, failed.ID); st.State != "failed" {
		t.Fatalf("job with a passed deadline = %s, want failed", st.State)
	}
	done := postJob(t, ts, tinyRun())
	if st := awaitJob(t, ts, done.ID); st.State != "done" {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}

	want := []*regexp.Regexp{
		regexp.MustCompile(`^level=warn msg="job settled" component=server job=` + failed.ID +
			` tenant=anonymous request_id=\S+ state=failed kind=run err="deadline exceeded: [^"]+"$`),
		regexp.MustCompile(`^level=info msg="job settled" component=server job=` + done.ID +
			` tenant=anonymous request_id=\S+ state=done kind=run$`),
	}
	waitFor(t, 5*time.Second, func() bool { return len(logs.lines("job settled")) >= len(want) },
		"settled jobs were not logged")
	got := logs.lines("job settled")
	if len(got) != len(want) {
		t.Fatalf("%d job settled records, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, re := range want {
		if !re.MatchString(got[i]) {
			t.Errorf("record %d:\n%s\ndoes not match\n%s", i, got[i], re)
		}
	}
}
