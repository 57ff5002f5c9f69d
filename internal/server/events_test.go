package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hdsmt/internal/client"
	"hdsmt/internal/server"
	"hdsmt/internal/telemetry"
)

// getEvents fetches the JSON timeline snapshot.
func getEvents(t *testing.T, ts *httptest.Server, id string) server.EventsPage {
	t.Helper()
	var page server.EventsPage
	if code := getJSON(t, ts.URL+"/jobs/"+id+"/events", &page); code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/events = %d", id, code)
	}
	return page
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    int64
	event string
	data  server.Event
}

// openSSE starts an SSE stream and parses frames onto a channel until the
// connection ends. Close the returned cancel to disconnect mid-stream.
func openSSE(t *testing.T, url string, lastEventID string) (<-chan sseFrame, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("SSE connect = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	frames := make(chan sseFrame, 64)
	go func() {
		defer resp.Body.Close()
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var fr sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if fr.event != "" {
					frames <- fr
				}
				fr = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				fr.id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			case strings.HasPrefix(line, "event: "):
				fr.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				_ = json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &fr.data)
			}
		}
	}()
	return frames, cancel
}

// collectUntilTerminal drains frames until a terminal event or timeout.
func collectUntilTerminal(t *testing.T, frames <-chan sseFrame) []sseFrame {
	t.Helper()
	var got []sseFrame
	deadline := time.After(60 * time.Second)
	for {
		select {
		case fr, ok := <-frames:
			if !ok {
				return got
			}
			got = append(got, fr)
			switch fr.event {
			case server.EventSettled, server.EventEvicted, server.EventInterrupted:
				return got
			}
		case <-deadline:
			t.Fatalf("no terminal event after %d frames", len(got))
		}
	}
}

func spineOf(types []string) (accepted, started, settled bool) {
	for _, typ := range types {
		switch typ {
		case server.EventAccepted:
			accepted = true
		case server.EventStarted:
			started = true
		case server.EventSettled:
			settled = true
		}
	}
	return
}

// TestEventsTimeline pins the JSON snapshot: a settled job's timeline
// carries the accepted→started→settled spine with monotonic sequence
// numbers and non-decreasing relative timestamps, and is closed.
func TestEventsTimeline(t *testing.T) {
	ts, _ := newTestServer(t)
	st := postJob(t, ts, server.JobSpec{Kind: "run", Config: "M8", Workload: "2W1", Budget: 2_000, Warmup: 1_000})
	awaitJob(t, ts, st.ID)

	page := getEvents(t, ts, st.ID)
	if !page.Closed {
		t.Error("settled job's timeline is not closed")
	}
	if page.State != "done" {
		t.Errorf("state = %q, want done", page.State)
	}
	if page.RequestID == "" {
		t.Error("events page carries no request_id")
	}
	var types []string
	lastSeq, lastTMS := int64(0), -1.0
	for _, ev := range page.Events {
		if ev.Seq <= lastSeq {
			t.Errorf("seq %d after %d: not monotonic", ev.Seq, lastSeq)
		}
		if ev.TMS < lastTMS {
			t.Errorf("t_ms %v after %v: went backwards", ev.TMS, lastTMS)
		}
		lastSeq, lastTMS = ev.Seq, ev.TMS
		types = append(types, ev.Type)
	}
	if a, s, d := spineOf(types); !a || !s || !d {
		t.Errorf("timeline %v misses the accepted/started/settled spine", types)
	}
	if last := page.Events[len(page.Events)-1]; last.Type != server.EventSettled || last.Detail != "done" {
		t.Errorf("final event = %s %q, want settled done", last.Type, last.Detail)
	}
}

// TestSSEConcurrentSubscribers runs several streams over one job — on
// both /jobs/{id}/events and the Accept-negotiated /jobs/{id} — and
// requires every one of them to independently deliver the full timeline
// through the terminal event.
func TestSSEConcurrentSubscribers(t *testing.T) {
	ts, _ := newTestServer(t)
	st := postJob(t, ts, server.JobSpec{
		Kind: "search", Strategy: "random", SearchBudget: 8, Seed: 5,
		Workloads: []string{"2W7"}, Budget: 3_000, Warmup: 2_000,
	})

	paths := []string{"/jobs/" + st.ID + "/events", "/jobs/" + st.ID, "/jobs/" + st.ID + "/events"}
	var wg sync.WaitGroup
	results := make([][]sseFrame, len(paths))
	for i, path := range paths {
		frames, cancel := openSSE(t, ts.URL+path, "")
		defer cancel()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = collectUntilTerminal(t, frames)
		}(i)
	}
	wg.Wait()

	for i, got := range results {
		var types []string
		for _, fr := range got {
			types = append(types, fr.event)
			if fr.id != fr.data.Seq {
				t.Errorf("stream %d: frame id %d != event seq %d", i, fr.id, fr.data.Seq)
			}
		}
		if a, s, d := spineOf(types); !a || !s || !d {
			t.Errorf("stream %d saw %v, missing the spine", i, types)
		}
	}
}

// TestSSELastEventIDResume pins exact resume: reconnecting with
// Last-Event-ID (or ?after=) replays only events beyond that sequence
// number — no duplicates, no gaps.
func TestSSELastEventIDResume(t *testing.T) {
	ts, _ := newTestServer(t)
	st := postJob(t, ts, server.JobSpec{Kind: "run", Config: "M8", Workload: "2W1", Budget: 2_000, Warmup: 1_000})
	awaitJob(t, ts, st.ID)
	full := getEvents(t, ts, st.ID).Events
	if len(full) < 3 {
		t.Fatalf("timeline too short to test resume: %d events", len(full))
	}
	cut := full[1].Seq

	for name, url := range map[string]string{
		"Last-Event-ID": ts.URL + "/jobs/" + st.ID + "/events",
		"after query":   fmt.Sprintf("%s/jobs/%s/events?after=%d", ts.URL, st.ID, cut),
	} {
		header := ""
		if name == "Last-Event-ID" {
			header = strconv.FormatInt(cut, 10)
		}
		frames, cancel := openSSE(t, url, header)
		got := collectUntilTerminal(t, frames)
		cancel()
		if len(got) != len(full)-2 {
			t.Errorf("%s: resumed %d events, want %d", name, len(got), len(full)-2)
		}
		for i, fr := range got {
			if want := full[i+2].Seq; fr.data.Seq != want {
				t.Errorf("%s: frame %d seq = %d, want %d", name, i, fr.data.Seq, want)
			}
		}
	}
}

// TestSSEClientDisconnect drops a live stream mid-job and requires the
// handler goroutine to unwind (gauge back to zero, goroutines stable)
// while the job itself settles unbothered.
func TestSSEClientDisconnect(t *testing.T) {
	dir := t.TempDir()
	ts, _, reg := durableServer(t, filepath.Join(dir, "jobs.jsonl"))
	base := runtime.NumGoroutine()

	st := postJob(t, ts, server.JobSpec{
		Kind: "search", Strategy: "random", SearchBudget: 10, Seed: 3,
		Workloads: []string{"2W7"}, Budget: 5_000, Warmup: 2_000,
	})
	frames, cancel := openSSE(t, ts.URL+"/jobs/"+st.ID+"/events", "")
	if _, ok := <-frames; !ok {
		t.Fatal("stream closed before first event")
	}
	cancel() // hang up mid-stream

	if st := awaitJob(t, ts, st.ID); st.State != "done" {
		t.Errorf("job settled %q after subscriber hangup, want done", st.State)
	}
	waitFor(t, 5*time.Second, func() bool {
		return reg.Total(telemetry.MetricServerSSEStreams) == 0
	}, "sse_streams gauge did not return to 0")
	waitFor(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+4
	}, "stream handler goroutines leaked")
}

// TestSSECancelDuringStream cancels a job that a live stream is
// following: the stream must deliver the canceled and terminal settled
// events, then end, leaking nothing.
func TestSSECancelDuringStream(t *testing.T) {
	ts, _ := newTestServer(t)
	base := runtime.NumGoroutine()
	st := postJob(t, ts, server.JobSpec{
		Kind: "search", Strategy: "random",
		SearchBudget: 100_000, // far beyond the space: runs until canceled
		Seed:         1, Workloads: []string{"2W7"},
		Budget: 200_000, Warmup: 1_000,
	})
	frames, cancel := openSSE(t, ts.URL+"/jobs/"+st.ID+"/events", "")
	defer cancel()

	// Wait for execution to begin so the cancel lands mid-run.
	started := false
	for fr := range frames {
		if fr.event == server.EventStarted {
			started = true
			break
		}
	}
	if !started {
		t.Fatal("stream ended before the job started")
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs/"+st.ID+"/cancel", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	got := collectUntilTerminal(t, frames)
	var sawCanceled bool
	for _, fr := range got {
		if fr.event == server.EventCanceled {
			sawCanceled = true
		}
	}
	if !sawCanceled {
		t.Error("stream never delivered the canceled event")
	}
	last := got[len(got)-1]
	if last.event != server.EventSettled || !strings.HasPrefix(last.data.Detail, "canceled") {
		t.Errorf("terminal frame = %s %q, want settled canceled...", last.event, last.data.Detail)
	}
	waitFor(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+4
	}, "goroutines leaked after cancel-during-stream")
}

// TestSSESettledBacklog opens streams on a job that settled before they
// opened: the frames must be byte-identical to the json.Marshal + Fprintf
// frames of the timeline snapshot, and each stream, a backlog well under
// net/http's 2 KB buffer, must arrive as one response with a
// Content-Length, not a chunked body.
func TestSSESettledBacklog(t *testing.T) {
	ts, _ := newTestServer(t)
	st := postJob(t, ts, server.JobSpec{Kind: "run", Config: "M8", Workload: "2W7", Budget: 2_000, Warmup: 1_000})
	if final := awaitJob(t, ts, st.ID); final.State != "done" {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	page := getEvents(t, ts, st.ID)
	if !page.Closed || len(page.Events) < 3 {
		t.Fatalf("timeline closed=%v with %d events, want a closed spine", page.Closed, len(page.Events))
	}
	for _, after := range []int64{0, 2, page.Events[len(page.Events)-1].Seq} {
		var want strings.Builder
		for _, ev := range page.Events {
			if ev.Seq <= after {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&want, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		}
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+st.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/event-stream")
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
			t.Fatalf("after %d: status %d, Content-Type %q", after, resp.StatusCode, ct)
		}
		if string(body) != want.String() {
			t.Errorf("after %d: stream body\n%s\nwant\n%s", after, body, want.String())
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("after %d: Transfer-Encoding %v, Content-Length %d for a %d-byte body; want one unchunked response",
				after, resp.TransferEncoding, resp.ContentLength, len(body))
		}
	}
}

// TestClientStream exercises the client-side SSE consumer: it must
// deliver the full ordered timeline and return nil at the terminal
// event, and its requests must carry the request ID the server echoes.
func TestClientStream(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := client.New(ts.URL)
	st, err := cl.Submit(context.Background(), server.JobSpec{
		Kind: "run", Config: "M8", Workload: "2W7", Budget: 2_000, Warmup: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.RequestID == "" {
		t.Error("submitted job carries no request_id")
	}
	var types []string
	lastSeq := int64(0)
	err = cl.Stream(context.Background(), st.ID, 0, func(ev server.Event) error {
		if ev.Seq <= lastSeq {
			t.Errorf("client stream seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if a, s, d := spineOf(types); !a || !s || !d {
		t.Errorf("client stream saw %v, missing the spine", types)
	}
}

// TestEventsJournalReplay restarts the daemon and requires the replayed
// job to keep its durable timeline — the accepted/started/settled spine
// with original sequence numbers — plus a correlation ID that survives.
func TestEventsJournalReplay(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.jsonl")
	ts, srv, _ := durableServer(t, journal)
	headers := map[string]string{"X-Request-ID": "replay-test-7"}
	code, st, _ := postStatus(t, ts, server.JobSpec{
		Kind: "run", Config: "M8", Workload: "2W1", Budget: 2_000, Warmup: 1_000,
	}, headers)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	awaitJob(t, ts, st.ID)
	before := getEvents(t, ts, st.ID)
	ts.Close()
	srv.Close()

	ts2, _, _ := durableServer(t, journal)
	after := getEvents(t, ts2, st.ID)
	if after.RequestID != "replay-test-7" {
		t.Errorf("replayed request_id = %q, want replay-test-7", after.RequestID)
	}
	if !after.Closed {
		t.Error("replayed timeline is not closed")
	}
	// Durable events (the spine among them) survive with their original
	// sequence numbers; ring-only progress events are allowed to vanish.
	bySeq := map[int64]server.Event{}
	for _, ev := range before.Events {
		bySeq[ev.Seq] = ev
	}
	var types []string
	for _, ev := range after.Events {
		types = append(types, ev.Type)
		orig, ok := bySeq[ev.Seq]
		if !ok {
			t.Errorf("replayed event seq %d (%s) never existed", ev.Seq, ev.Type)
			continue
		}
		if orig.Type != ev.Type || orig.TMS != ev.TMS {
			t.Errorf("replayed seq %d = %s@%v, original %s@%v", ev.Seq, ev.Type, ev.TMS, orig.Type, orig.TMS)
		}
	}
	if a, s, d := spineOf(types); !a || !s || !d {
		t.Errorf("replayed timeline %v misses the spine", types)
	}
}

// TestQueuedBeforeAdmitted pins event ordering under saturation: a job
// that waits for a slot records queued strictly before admitted.
func TestQueuedBeforeAdmitted(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := durableServer(t, filepath.Join(dir, "jobs.jsonl"),
		server.WithAdmission(server.AdmissionConfig{MaxActive: 1, MaxPending: 8}))

	// The slow job must still hold the only active slot when the fast one
	// arrives, or the fast job is admitted without ever queueing; a
	// generous search budget keeps that window wide under parallel-test
	// scheduling noise.
	slow := postJob(t, ts, server.JobSpec{
		Kind: "search", Strategy: "random", SearchBudget: 60, Seed: 2,
		Workloads: []string{"2W7"}, Budget: 5_000, Warmup: 2_000,
	})
	fast := postJob(t, ts, server.JobSpec{Kind: "run", Config: "M8", Workload: "2W1", Budget: 2_000, Warmup: 1_000})
	awaitJob(t, ts, slow.ID)
	awaitJob(t, ts, fast.ID)

	var queuedSeq, admittedSeq int64
	for _, ev := range getEvents(t, ts, fast.ID).Events {
		switch ev.Type {
		case server.EventQueued:
			queuedSeq = ev.Seq
		case server.EventAdmitted:
			admittedSeq = ev.Seq
		}
	}
	if queuedSeq == 0 || admittedSeq == 0 {
		t.Fatalf("queued seq %d, admitted seq %d: both must be present", queuedSeq, admittedSeq)
	}
	if queuedSeq >= admittedSeq {
		t.Errorf("queued (seq %d) did not precede admitted (seq %d)", queuedSeq, admittedSeq)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Error(msg)
}
