package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/metrics"
	"hdsmt/internal/search"
	"hdsmt/internal/sim"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/tshist"
	"hdsmt/internal/workload"
)

// indented is the body a json.Encoder with SetIndent("", "  ") writes for
// v: what writeJSON wrote before it encoded into pooled buffers. An
// encoding error writes nothing.
func indented(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if enc.Encode(v) != nil {
		return nil
	}
	return b.Bytes()
}

func writeJSONBody(t *testing.T, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, v)
	if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.Bytes()
}

// TestWriteJSONMatchesIndentingEncoder checks writeJSON byte for byte
// against an indenting json.Encoder for every kind of value a handler
// passes it, and — for /result, which serves a job's result encoded once
// at settle — that the indented stored bytes equal the indented value.
func TestWriteJSONMatchesIndentingEncoder(t *testing.T) {
	ctx := context.Background()
	r, err := sim.NewRunner(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg, w := config.MustParse("2M4+2M2"), workload.MustByName("2W7")
	opt := sim.Options{Budget: 2_000, Warmup: 500, OracleBudget: 1_000}
	run, err := r.Run(ctx, cfg, w, []int{0, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := r.Evaluate(ctx, cfg, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	jt := telemetry.NewJobTrace(telemetry.NewTraceContext(), 8)
	start := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	jt.Add("", "admission", "server", start, start.Add(1500*time.Microsecond), map[string]string{"a": "<&>"})
	front := []search.TrajectoryPoint{{Evaluations: 3, Config: "2M4+2M2", Policy: "<q>",
		Values: metrics.Values{"ipc": 1.25, "area": 1e-7}}}
	status := Status{ID: "job-000001", Kind: "run", RequestID: "r&d", State: "done", Progress: Progress{1, 1},
		Created: "2026-01-02T03:04:05Z", Front: front, Hypervolume: 0.1 + 0.2}

	values := map[string]any{
		"healthz":  map[string]string{"status": "ok"},
		"error":    map[string]string{"error": "job \"x\" <failed> & \u2028 é \x01"},
		"readyz":   map[string]any{"version": "v", "jobs": 3, "slos": map[string]string{"avail": "ok"}, "slo_breach": false, "status": "ready"},
		"status":   status,
		"list":     []Status{status, {ID: "job-000002", State: "pending"}},
		"empty":    []Status{},
		"events":   EventsPage{ID: "job-000001", State: "done", Closed: true, Events: []Event{{Seq: 1, TMS: 0.125, Type: EventAccepted, Detail: "run"}}},
		"feed":     FeedPage{Events: []Event{}},
		"trace":    TracePage{ID: "job-000001", TraceID: jt.Context().TraceID, State: "done", Spans: 1, Root: jt.Tree()},
		"stats":    r.Stats(),
		"history":  tshist.History{Schema: "s", Gauges: map[string]float64{"g": -0.5}},
		"run":      run,
		"evaluate": meas,
		"sweep":    SweepResult{Measurements: []sim.Measurement{meas, meas}},
		"numbers":  map[string]any{"big": 1e21, "small": 1e-7, "neg": -0.0, "int": int64(math.MinInt64), "u": uint64(math.MaxUint64)},
		"nil":      nil,
		"nan":      map[string]float64{"x": math.NaN()},
	}
	for name, v := range values {
		want := indented(v)
		if name != "nan" && len(want) == 0 {
			t.Fatalf("%s: the reference encoder wrote nothing", name)
		}
		if got := writeJSONBody(t, v); !bytes.Equal(got, want) {
			t.Errorf("%s: writeJSON\n%s\nindenting encoder\n%s", name, got, want)
		}
		// A result is stored as json.Marshal's bytes and served from them.
		raw, err := json.Marshal(v)
		if err != nil {
			continue
		}
		if got := writeJSONBody(t, json.RawMessage(raw)); !bytes.Equal(got, want) {
			t.Errorf("%s as stored result: writeJSON\n%s\nindenting encoder\n%s", name, got, want)
		}
	}
}
