package telemetry

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeTrace parses a written trace back into its generic JSON shape.
func decodeTrace(t *testing.T, tr *Tracer) map[string]any {
	t.Helper()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	return doc
}

func TestTracerSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	tr.SetThreadName(1, "worker-1")
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.Complete(1, "simulate", "engine", start, time.Now(), map[string]string{"config": "M8"})
	tr.Instant(0, "memo-hit", "engine", time.Now(), nil)
	tr.Complete(1, "queue-wait", "engine", time.Now().Add(-time.Millisecond), time.Now(), nil)

	doc := decodeTrace(t, tr)
	events, ok := doc["traceEvents"].([]any)
	if !ok || len(events) != 4 {
		t.Fatalf("traceEvents = %v, want 4 events", doc["traceEvents"])
	}
	byName := map[string]map[string]any{}
	for _, e := range events {
		ev := e.(map[string]any)
		byName[ev["name"].(string)] = ev
	}
	sim := byName["simulate"]
	if sim["ph"] != "X" || sim["dur"].(float64) <= 0 {
		t.Errorf("simulate span = %v, want complete event with positive dur", sim)
	}
	if sim["args"].(map[string]any)["config"] != "M8" {
		t.Errorf("simulate args = %v", sim["args"])
	}
	if byName["memo-hit"]["ph"] != "i" {
		t.Errorf("memo-hit = %v, want instant", byName["memo-hit"])
	}
	if byName["thread_name"]["ph"] != "M" {
		t.Errorf("thread_name = %v, want metadata", byName["thread_name"])
	}
	if byName["queue-wait"]["dur"].(float64) <= 0 {
		t.Errorf("queue-wait = %v, want positive dur", byName["queue-wait"])
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Instant(0, "x", "y", time.Now(), nil)
	tr.Complete(0, "x", "y", time.Now(), time.Now(), nil)
	tr.SetThreadName(0, "x")
	if tr.Len() != 0 {
		t.Error("nil tracer recorded events")
	}
	if err := tr.WriteJSON(&strings.Builder{}); err == nil {
		t.Error("nil tracer WriteJSON must error")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Complete(w, "span", "test", time.Now(), time.Now(), nil)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Errorf("recorded %d events, want 800", tr.Len())
	}
	doc := decodeTrace(t, tr)
	if len(doc["traceEvents"].([]any)) != 800 {
		t.Error("written trace dropped events")
	}
}

func TestTracerWriteFile(t *testing.T) {
	tr := NewTracer()
	tr.Complete(0, "a", "b", time.Now(), time.Now(), nil)
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
}
