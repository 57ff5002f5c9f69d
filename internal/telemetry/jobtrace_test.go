package telemetry

import (
	"strings"
	"testing"
	"time"
)

func testTraceContext() TraceContext {
	return TraceContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
	}
}

// TestJobTraceEvictionOrder pins the bounded-buffer contract: a full
// span ring evicts oldest-first, Snapshot returns survivors in record
// order, and Dropped counts exactly the evicted spans.
func TestJobTraceEvictionOrder(t *testing.T) {
	jt := NewJobTrace(testTraceContext(), 4)
	base := time.Now()
	names := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	for i, name := range names {
		start := base.Add(time.Duration(i) * time.Millisecond)
		jt.Add("", name, "test", start, start.Add(time.Millisecond), nil)
	}

	spans, dropped := jt.Snapshot()
	if dropped != 2 || jt.Dropped() != 2 {
		t.Fatalf("dropped = %d (method %d), want 2", dropped, jt.Dropped())
	}
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, want := range []string{"s3", "s4", "s5", "s6"} {
		if spans[i].Name != want {
			t.Errorf("spans[%d] = %q, want %q (oldest-first survivors)", i, spans[i].Name, want)
		}
	}
}

// TestJobTraceTree pins tree assembly: a synthetic root carrying the
// client's span ID, children ordered by start time, and spans whose
// parent was evicted attaching to the root instead of vanishing.
func TestJobTraceTree(t *testing.T) {
	tc := testTraceContext()
	jt := NewJobTrace(tc, 8)
	base := time.Now()
	parent := jt.NewSpanID()
	jt.AddWithID(parent, "", "execute", "server", base, base.Add(10*time.Millisecond), nil)
	jt.Add(parent, "child-b", "engine", base.Add(4*time.Millisecond), base.Add(5*time.Millisecond), nil)
	jt.Add(parent, "child-a", "engine", base.Add(2*time.Millisecond), base.Add(3*time.Millisecond), nil)
	jt.Add("deadbeefdeadbeef", "orphan", "engine", base.Add(6*time.Millisecond), base.Add(7*time.Millisecond), nil)

	root := jt.Tree()
	if root == nil || root.SpanID != tc.SpanID || root.Name != "request" {
		t.Fatalf("root = %+v, want synthetic request span %s", root, tc.SpanID)
	}
	var names []string
	for _, ch := range root.Children {
		names = append(names, ch.Name)
	}
	// execute starts first; the orphan's unknown parent reattaches it to
	// the root after execute.
	if got := strings.Join(names, ","); got != "execute,orphan" {
		t.Fatalf("root children = %s, want execute,orphan", got)
	}
	exec := root.Children[0]
	if len(exec.Children) != 2 || exec.Children[0].Name != "child-a" || exec.Children[1].Name != "child-b" {
		t.Fatalf("execute children out of start order: %+v", exec.Children)
	}
}

// TestJobTraceNilSafety pins that a nil JobTrace absorbs every method —
// jobs on servers without tracing never guard their span calls.
func TestJobTraceNilSafety(t *testing.T) {
	var jt *JobTrace
	jt.Add("", "x", "test", time.Now(), time.Now(), nil)
	if jt.NewSpanID() != "" || jt.Dropped() != 0 || jt.Tree() != nil {
		t.Error("nil JobTrace must be inert")
	}
	if spans, dropped := jt.Snapshot(); spans != nil || dropped != 0 {
		t.Error("nil JobTrace snapshot must be empty")
	}
}

// TestTracerBounded pins the tracer's ring: past capacity the oldest
// events fall out, WriteJSON serves the survivors oldest-first, and the
// drop counter is exact and exported through Register.
func TestTracerBounded(t *testing.T) {
	tr := NewTracerCap(3)
	base := time.Now()
	for i, name := range []string{"e1", "e2", "e3", "e4", "e5"} {
		start := base.Add(time.Duration(i) * time.Millisecond)
		tr.Complete(1, name, "engine", start, start.Add(time.Millisecond), nil)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}

	doc := decodeTrace(t, tr)
	events := doc["traceEvents"].([]any)
	var names []string
	for _, e := range events {
		names = append(names, e.(map[string]any)["name"].(string))
	}
	if got := strings.Join(names, ","); got != "e3,e4,e5" {
		t.Fatalf("retained events = %s, want e3,e4,e5", got)
	}

	reg := NewRegistry()
	tr.Register(reg)
	var found bool
	for _, s := range reg.Snapshot() {
		if s.Name == MetricTraceDropped {
			found = true
			if s.Value != 2 {
				t.Fatalf("%s = %g, want 2", MetricTraceDropped, s.Value)
			}
		}
	}
	if !found {
		t.Fatalf("%s missing from registry snapshot", MetricTraceDropped)
	}
}
