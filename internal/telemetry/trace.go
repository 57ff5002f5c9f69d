package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Tracer records spans and instants for one run and exports them as
// Chrome trace_event JSON — open the file in about://tracing (Chrome) or
// https://ui.perfetto.dev to see the engine's job pipeline laid out per
// worker over time.
//
// A nil *Tracer is the disabled state: every method no-ops after a single
// pointer comparison and allocates nothing, so instrumented code guards
// argument assembly with Enabled() and otherwise calls unconditionally.
//
// The event buffer is a bounded ring: a long-lived daemon tracing every
// job would otherwise grow it forever. When full, the oldest events are
// overwritten and counted (Dropped, exported as
// hdsmt_trace_events_dropped_total via Register), so the export keeps the
// most recent window of activity instead of OOMing the process.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	events  Ring[traceEvent]
	dropped uint64
}

// DefaultTraceCap is the event-ring bound of NewTracer: roughly a few
// hundred thousand jobs' worth of spans, tens of MB at most.
const DefaultTraceCap = 1 << 18

// traceEvent is one Chrome trace_event. Complete events ("X") carry a
// duration; instants ("i") mark a point; metadata ("M") names threads.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"` // microseconds since trace start
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"` // instant scope
	Args  map[string]string `json:"args,omitempty"`
}

// NewTracer builds an enabled tracer; timestamps are relative to now.
// The event ring is bounded at DefaultTraceCap; use NewTracerCap to
// choose the bound.
func NewTracer() *Tracer {
	return NewTracerCap(DefaultTraceCap)
}

// NewTracerCap builds an enabled tracer retaining at most capacity
// events (<= 0 means DefaultTraceCap).
func NewTracerCap(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{start: time.Now(), events: NewRing[traceEvent](capacity)}
}

// Dropped returns how many events the bounded ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Register exposes the tracer's drop count in reg as the counter
// hdsmt_trace_events_dropped_total, so a daemon tracing under memory
// pressure is observable instead of silently lossy.
func (t *Tracer) Register(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.CounterFunc(MetricTraceDropped,
		"trace events evicted from the bounded ring (export keeps the newest window)",
		func() float64 { return float64(t.Dropped()) })
}

// Enabled reports whether spans are being recorded. Callers use it to
// skip assembling argument maps for a disabled tracer.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.Len()
}

func (t *Tracer) since(at time.Time) int64 { return at.Sub(t.start).Microseconds() }

func (t *Tracer) append(ev traceEvent) {
	ev.PID = 1
	t.mu.Lock()
	if t.events.Push(ev) {
		t.dropped++
	}
	t.mu.Unlock()
}

// Complete records a span whose start and end were measured by the caller
// — the engine measures each span once and hands the same pair to the
// job's JobTrace.
func (t *Tracer) Complete(tid int, name, cat string, start, end time.Time, args map[string]string) {
	if t == nil {
		return
	}
	t.append(traceEvent{
		Name: name, Cat: cat, Phase: "X",
		TS: t.since(start), Dur: end.Sub(start).Microseconds(),
		TID: tid, Args: args,
	})
}

// Instant records a point event at the caller's instant at on track tid.
func (t *Tracer) Instant(tid int, name, cat string, at time.Time, args map[string]string) {
	if t == nil {
		return
	}
	t.append(traceEvent{
		Name: name, Cat: cat, Phase: "i", Scope: "t",
		TS: t.since(at), TID: tid, Args: args,
	})
}

// SetThreadName labels track tid in the trace viewer ("submit",
// "worker-3", ...).
func (t *Tracer) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.append(traceEvent{
		Name: "thread_name", Phase: "M", TID: tid,
		Args: map[string]string{"name": name},
	})
}

// WriteJSON writes the trace in Chrome trace_event JSON object form.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: nil tracer has no trace to write")
	}
	t.mu.Lock()
	events := t.events.Slice()
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events})
}

// WriteFile writes the trace to path (0644).
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: writing trace: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: writing trace: %w", err)
	}
	return nil
}
