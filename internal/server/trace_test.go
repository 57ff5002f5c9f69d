package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdsmt/internal/client"
	"hdsmt/internal/engine"
	"hdsmt/internal/server"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
)

// newTracedServer builds a server whose engine has a checkpoint journal,
// so every span kind the engine can record — queue-wait, simulate,
// journal-append — actually appears in a settled job's trace.
func newTracedServer(t *testing.T) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	r, err := sim.NewRunner(engine.Options{
		Workers:     2,
		JournalPath: dir + "/journal.jsonl",
	})
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
	return ts
}

// TestTraceparentRoundTrip pins the tracing acceptance criterion
// end-to-end through the client package: a job submitted under a
// client-minted trace context settles with a span tree rooted at the
// client's span, with the admission and execute server spans parented
// to the root and the engine's queue-wait, simulate and journal-append
// spans parented to execute.
func TestTraceparentRoundTrip(t *testing.T) {
	ts := newTracedServer(t)
	c := client.New(ts.URL)

	tc := telemetry.NewTraceContext()
	ctx := telemetry.WithTraceContext(context.Background(), tc)
	st, err := c.Submit(ctx, tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != tc.TraceID {
		t.Fatalf("accepted status trace_id = %q, want the client's %q", st.TraceID, tc.TraceID)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.Wait(wctx, st.ID); err != nil {
		t.Fatal(err)
	}

	tp, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tp.TraceID != tc.TraceID {
		t.Errorf("trace page trace_id = %q, want %q", tp.TraceID, tc.TraceID)
	}
	if tp.Root == nil {
		t.Fatal("trace page has no root span")
	}
	if tp.Root.SpanID != tc.SpanID {
		t.Errorf("root span id = %q, want the client's %q", tp.Root.SpanID, tc.SpanID)
	}

	// Flatten the tree into name → parent for structural assertions.
	parents := map[string]string{}
	ids := map[string]string{}
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		ids[n.Name] = n.SpanID
		parents[n.Name] = n.ParentID
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(tp.Root)

	for _, name := range []string{"admission", "execute", "queue-wait", "simulate", "journal-append"} {
		if _, ok := parents[name]; !ok {
			t.Errorf("span %q missing from settled job's trace", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, name := range []string{"admission", "execute"} {
		if parents[name] != tc.SpanID {
			t.Errorf("%s span parent = %q, want root %q", name, parents[name], tc.SpanID)
		}
	}
	for _, name := range []string{"queue-wait", "simulate", "journal-append"} {
		if parents[name] != ids["execute"] {
			t.Errorf("%s span parent = %q, want execute span %q", name, parents[name], ids["execute"])
		}
	}
}

// TestTraceparentSanitization pins the header contract at the HTTP
// edge, mirroring TestRequestIDEcho: a well-formed traceparent is
// adopted (same trace-id echoed back, job rooted at the client's span),
// while malformed ones — wrong length, uppercase hex, zero IDs, the
// forbidden version ff — are replaced with a minted identity, never
// reflected or half-trusted.
func TestTraceparentSanitization(t *testing.T) {
	ts, _ := newTestServer(t)

	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	code, st, hdr := postStatus(t, ts, tinyRun(), map[string]string{"traceparent": valid})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if got := hdr.Get("traceparent"); got != valid {
		t.Errorf("echoed traceparent = %q, want %q", got, valid)
	}
	if st.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("job trace_id = %q, want the client's", st.TraceID)
	}

	for _, bad := range []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span-id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // forbidden version
		"00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",   // wrong separators
		"00-4bf92f3577b34da6a3ce929d0e0e4736xx-00f067aa0ba902b7-01", // wrong length
	} {
		code, st, hdr := postStatus(t, ts, tinyRun(), map[string]string{"traceparent": bad})
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs with traceparent %q = %d", bad, code)
		}
		minted := hdr.Get("traceparent")
		if minted == bad {
			t.Errorf("malformed traceparent %q reflected verbatim", bad)
		}
		mtc, ok := telemetry.ParseTraceparent(minted)
		if !ok {
			t.Errorf("minted traceparent %q for input %q is itself invalid", minted, bad)
			continue
		}
		if strings.Contains(bad, mtc.TraceID) {
			t.Errorf("minted trace-id %q reuses part of malformed input %q", mtc.TraceID, bad)
		}
		if st.TraceID != mtc.TraceID {
			t.Errorf("job trace_id %q != echoed header's %q", st.TraceID, mtc.TraceID)
		}
	}
}

// TestTraceEndpoint pins the /jobs/{id}/trace surface itself: 404 for
// unknown jobs, a JSON tree for settled ones, and Chrome trace_event
// JSON under ?format=chrome.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	if code := getJSON(t, ts.URL+"/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Errorf("GET /jobs/nope/trace = %d, want 404", code)
	}

	st := postJob(t, ts, tinyRun())
	awaitJob(t, ts, st.ID)

	var tp server.TracePage
	if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/trace", &tp); code != http.StatusOK {
		t.Fatalf("GET trace = %d", code)
	}
	if tp.ID != st.ID || tp.Root == nil || tp.Spans == 0 {
		t.Fatalf("trace page = %+v, want id %s with a non-empty tree", tp, st.ID)
	}
	// Children are ordered by start time: admission (accepted) cannot
	// start after execute (started).
	if len(tp.Root.Children) >= 2 && tp.Root.Children[0].Name != "admission" {
		t.Errorf("first root child = %q, want admission", tp.Root.Children[0].Name)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			t.Errorf("chrome event %q has phase %q, want X or i", ev.Name, ev.Ph)
		}
	}
}
