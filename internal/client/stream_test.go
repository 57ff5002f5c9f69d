package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hdsmt/internal/client"
	"hdsmt/internal/retry"
	"hdsmt/internal/server"
)

// TestStreamParsesFrames feeds the SSE reader hand-written frames — a
// heartbeat, data lines with and without the optional space, a frame
// split across data lines, a replayed event at or below Last-Event-ID, a
// long data line that outgrows the scanner's first buffer — over several
// streams, so pooled buffers are reused between them, and checks the
// events delivered.
func TestStreamParsesFrames(t *testing.T) {
	long := strings.Repeat("x", 10_000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": hb\n\n")
		fmt.Fprint(w, "id: 1\nevent: accepted\ndata: {\"seq\":1,\"t_ms\":0.5,\"type\":\"accepted\",\"detail\":\"run\"}\n\n")
		fmt.Fprint(w, "id: 1\nevent: accepted\ndata: {\"seq\":1,\"t_ms\":0.5,\"type\":\"accepted\",\"detail\":\"dup\"}\n\n")
		fmt.Fprint(w, "data:{\"seq\":2,\"t_ms\":1,\n")
		fmt.Fprint(w, "data: \"type\":\"progress\",\"detail\":\""+long+"\"}\n\n")
		fmt.Fprint(w, "id: 3\nevent: settled\ndata: {\"seq\":3,\"t_ms\":2.25,\"type\":\"settled\",\"detail\":\"done\"}\n\n")
	}))
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetryPolicy(retry.Policy{Attempts: 1}))
	want := []server.Event{
		{Seq: 1, TMS: 0.5, Type: "accepted", Detail: "run"},
		{Seq: 2, TMS: 1, Type: "progress", Detail: long},
		{Seq: 3, TMS: 2.25, Type: "settled", Detail: "done"},
	}
	for round := 0; round < 3; round++ {
		var got []server.Event
		err := c.Stream(context.Background(), "job-000001", 0, func(ev server.Event) error {
			got = append(got, ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: events\n%+v\nwant\n%+v", round, got, want)
		}
	}
}

// TestResultDecodesWholeBody checks responses decoded from pooled buffers:
// values stay intact after the buffer is reused for later responses.
func TestResultDecodesWholeBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\n  \"id\": %q,\n  \"state\": \"done\"\n}\n", strings.TrimPrefix(r.URL.Path, "/jobs/"))
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	var seen []server.Status
	for i := 0; i < 4; i++ {
		st, err := c.Status(context.Background(), fmt.Sprintf("job-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, st)
	}
	for i, st := range seen {
		if want := fmt.Sprintf("job-%06d", i); st.ID != want || st.State != "done" {
			t.Errorf("response %d decoded as %+v, want id %s done", i, st, want)
		}
	}
}

// TestResultIntoRawMessage: a result read into a *json.RawMessage holds
// exactly the bytes json.Unmarshal stores for the same body — whitespace
// around the value trimmed, inside it kept — and survives the pooled
// buffer's reuse; an invalid body is still a decoding error.
func TestResultIntoRawMessage(t *testing.T) {
	bodies := map[string]string{
		"indented": "{\n  \"ipc\": 1.25,\n  \"m\": [\n    0,\n    1\n  ]\n}\n",
		"padded":   " \t\r\n[ \"a b\" , {} ]  \n\n",
		"scalar":   "-1.5e-7",
		"string":   "\"x \\\" y\"\n",
		"invalid":  "{\"ipc\": 1.25,}\n",
		"two":      "{} {}",
		"empty":    "",
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, bodies[strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/result")])
	}))
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetryPolicy(retry.Policy{Attempts: 1}))
	got := map[string]json.RawMessage{}
	for name, body := range bodies {
		var want json.RawMessage
		werr := json.Unmarshal([]byte(body), &want)
		raw := json.RawMessage("stale")
		err := c.Result(context.Background(), name, &raw)
		if werr != nil {
			if err == nil || !strings.Contains(err.Error(), "decoding") {
				t.Errorf("%s: Result = %v, want a decoding error (Unmarshal: %v)", name, err, werr)
			}
			continue
		}
		if err != nil || string(raw) != string(want) {
			t.Errorf("%s: Result = %q, %v; json.Unmarshal stores %q", name, raw, err, want)
		}
		got[name] = raw
	}
	for name, raw := range got {
		var want json.RawMessage
		_ = json.Unmarshal([]byte(bodies[name]), &want)
		if string(raw) != string(want) {
			t.Errorf("%s: later responses changed the stored bytes to %q", name, raw)
		}
	}
}
