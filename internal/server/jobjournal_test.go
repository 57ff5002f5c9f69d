package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hdsmt/internal/engine"
	"hdsmt/internal/obslog"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
)

// journalRecord is the part of a job-journal line these tests read.
type journalRecord struct {
	ID    string        `json:"id"`
	Event string        `json:"event"`
	TL    *server.Event `json:"tl"`
}

func readJournal(t *testing.T, path string) (lines [][]byte, recs []journalRecord) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		lines = append(lines, line)
		recs = append(recs, rec)
	}
	return lines, recs
}

// runAndEvict settles one tiny run job on a fresh durable server, DELETEs
// it, and returns the job ID and the journal path.
func runAndEvict(t *testing.T) (id, journal string) {
	t.Helper()
	journal = filepath.Join(t.TempDir(), "jobs.jsonl")
	ts, srv, _ := durableServer(t, journal)
	st := postJob(t, ts, tinyRun())
	if final := awaitJob(t, ts, st.ID); final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	ts.Close()
	srv.Close()
	return st.ID, journal
}

// TestJobJournalOneRecordPerTransition: a run job followed by DELETE
// journals exactly one record per transition, and every record carries
// the timeline event of its transition — the state change and its
// timeline entry are one append.
func TestJobJournalOneRecordPerTransition(t *testing.T) {
	_, journal := runAndEvict(t)
	_, recs := readJournal(t, journal)
	want := []struct{ event, tl string }{
		{"accepted", server.EventAccepted},
		{"timeline", server.EventAdmitted},
		{"running", server.EventStarted},
		{"done", server.EventSettled},
		{"evicted", server.EventEvicted},
	}
	if len(recs) != len(want) {
		t.Fatalf("journal has %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i, w := range want {
		r := recs[i]
		if r.Event != w.event || r.TL == nil || r.TL.Type != w.tl {
			t.Errorf("record %d = %s carrying %+v, want %s carrying a %s event", i, r.Event, r.TL, w.event, w.tl)
		}
	}
}

// TestJobJournalPrefixReplayAgreesWithTimeline: a crash can stop the
// journal after any record. Replaying every line-prefix of a job's
// journal must give a state that agrees with the replayed timeline: an
// accepted event always, exactly one terminal event, and never a settled
// event followed by an interruption.
func TestJobJournalPrefixReplayAgreesWithTimeline(t *testing.T) {
	id, journal := runAndEvict(t)
	lines, recs := readJournal(t, journal)
	for k := 1; k <= len(lines); k++ {
		prefix := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(prefix, bytes.Join(lines[:k], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		ts, _, _ := durableServer(t, prefix)
		var st server.Status
		code := getJSON(t, ts.URL+"/jobs/"+id, &st)
		if recs[k-1].Event == "evicted" {
			if code != http.StatusNotFound {
				t.Errorf("prefix %d ends with the eviction, job status %d", k, code)
			}
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("prefix %d: job status %d", k, code)
		}
		page := getEvents(t, ts, id)
		var types []string
		var settled *server.Event
		terminal := 0
		for i, ev := range page.Events {
			types = append(types, ev.Type)
			switch ev.Type {
			case server.EventSettled:
				settled = &page.Events[i]
				terminal++
			case server.EventInterrupted:
				terminal++
			}
		}
		if len(types) == 0 || types[0] != server.EventAccepted {
			t.Errorf("prefix %d: timeline %v does not open with accepted", k, types)
		}
		if terminal != 1 || !page.Closed {
			t.Errorf("prefix %d: timeline %v (closed %v), want exactly one terminal event", k, types, page.Closed)
		}
		if settled != nil && !strings.HasPrefix(settled.Detail, st.State) {
			t.Errorf("prefix %d: state %s but timeline %v settled %q", k, st.State, types, settled.Detail)
		}
		if st.State == "interrupted" && settled != nil {
			t.Errorf("prefix %d: interrupted after the timeline settled: %v", k, types)
		}
	}
}

// replayGolden is what a daemon serves for each job of a journal
// fixture after replaying it.
type replayGolden struct {
	Jobs map[string]struct {
		Status server.Status     `json:"status"`
		Result string            `json:"result"`
		Events server.EventsPage `json:"events"`
	} `json:"jobs"`
	Evicted []string `json:"evicted"`
}

// TestJobJournalReplaysSplitTimelineFormat: journals written before state
// records carried their timeline event hold every durable timeline event
// in its own "timeline" record. Such a journal (a done run, an evicted
// run, a deadline failure, a done evaluate and a canceled sweep) must
// replay to the same state, result bytes and durable timeline that its
// writer served after its own restart.
func TestJobJournalReplaysSplitTimelineFormat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "journal_split_timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(filepath.Join("testdata", "journal_split_timeline.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden replayGolden
	if err := json.Unmarshal(gb, &golden); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	if err := os.WriteFile(journal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, _, _ := durableServer(t, journal)
	for id, want := range golden.Jobs {
		var st server.Status
		if code := getJSON(t, ts.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("%s: status %d", id, code)
		}
		if !reflect.DeepEqual(st, want.Status) {
			t.Errorf("%s: status\n got %+v\nwant %+v", id, st, want.Status)
		}
		if got := getEvents(t, ts, id); !reflect.DeepEqual(got, want.Events) {
			t.Errorf("%s: timeline\n got %+v\nwant %+v", id, got, want.Events)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := ""
		if resp.StatusCode == http.StatusOK {
			got = string(body)
		}
		if got != want.Result {
			t.Errorf("%s: result\n got %q\nwant %q", id, got, want.Result)
		}
	}
	for _, id := range golden.Evicted {
		if code := getJSON(t, ts.URL+"/jobs/"+id, nil); code != http.StatusNotFound {
			t.Errorf("evicted %s replayed with status %d", id, code)
		}
	}
	// Replay adds nothing to a journal whose jobs all settled.
	if after, _ := os.ReadFile(journal); !bytes.Equal(after, raw) {
		t.Error("replaying a fully settled journal rewrote it")
	}
}

// listJobs returns the state of every job srv lists, by ID.
func listJobs(t *testing.T, srv *server.Server) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	var list []server.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	out := map[string]string{}
	for _, st := range list {
		out[st.ID] = st.State
	}
	return out
}

// FuzzJobJournalReplay opens a server over arbitrary journal bytes. The
// server has no archive directory, so replay never launches a job: every
// unfinished job is interrupted. Opening must never panic, every replayed
// job must be terminal, and a second restart over the journal the first
// one left must list the same jobs in the same states.
func FuzzJobJournalReplay(f *testing.F) {
	for _, name := range []string{"journal_split_timeline.jsonl", "journal_one_record.jsonl"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-len(b)/7]) // torn tail
	}
	f.Add([]byte{})
	r, err := sim.NewRunner(engine.Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer r.Close()
	quiet := obslog.New(io.Discard)
	open := func(t *testing.T, journal string) map[string]string {
		srv, err := server.New(r, server.WithJobJournal(journal), server.WithLogger(quiet))
		if err != nil {
			t.Fatalf("opening the journal: %v", err)
		}
		defer srv.Close()
		return listJobs(t, srv)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		journal := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(journal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		first := open(t, journal)
		for id, state := range first {
			switch state {
			case "done", "failed", "canceled", "interrupted":
			default:
				t.Errorf("replayed job %s is %q, want a terminal state", id, state)
			}
		}
		if second := open(t, journal); !reflect.DeepEqual(first, second) {
			t.Errorf("second restart lists %v, first listed %v", second, first)
		}
	})
}
