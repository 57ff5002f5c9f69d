package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultJobTraceCap bounds a job's span buffer when the owner does not
// choose: large enough to hold every span of a sweep-sized job, small
// enough that thousands of retained jobs cannot OOM a daemon.
const DefaultJobTraceCap = 512

// SpanRecord is one completed span in a job's trace. Timestamps are
// microseconds relative to the trace's creation (the job's acceptance),
// so two clients need not share a wall clock to read the tree causally.
// Wall-clock durations appear only here and in /metrics — never in BENCH
// artifacts.
type SpanRecord struct {
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_span_id,omitempty"`
	Name     string            `json:"name"`
	Cat      string            `json:"cat,omitempty"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Args     map[string]string `json:"args,omitempty"`
}

// JobTrace is one request's bounded span buffer: every span recorded for
// the job — admission, queue wait, store lookups, simulations, journal
// appends — parented into one tree rooted at the span the client named in
// its traceparent header. Concurrency-safe; a nil *JobTrace no-ops every
// method after one pointer comparison, so instrumented code calls
// unconditionally.
//
// The buffer is a ring: when a job outgrows its capacity (a long search
// submits thousands of simulations), the oldest spans are dropped and
// counted, so an unbounded job cannot grow an unbounded trace.
type JobTrace struct {
	tc   TraceContext
	base time.Time

	mu      sync.Mutex
	spans   Ring[SpanRecord]
	seq     uint64 // span-ID sequence within this trace
	dropped uint64
}

// NewJobTrace builds a span buffer for one request. tc must be valid (the
// caller parsed or minted it); capacity <= 0 means DefaultJobTraceCap.
// The base time is now: spans are stamped relative to it.
func NewJobTrace(tc TraceContext, capacity int) *JobTrace {
	if capacity <= 0 {
		capacity = DefaultJobTraceCap
	}
	return &JobTrace{tc: tc, base: time.Now(), spans: NewRing[SpanRecord](capacity)}
}

// Context returns the trace identity (trace ID + the client's root span
// ID).
func (jt *JobTrace) Context() TraceContext {
	if jt == nil {
		return TraceContext{}
	}
	return jt.tc
}

// NewSpanID mints the next span ID in this trace. IDs are sequential
// within the trace (the trace ID provides the global uniqueness), so a
// span tree reads in creation order and tests can assert exact IDs.
func (jt *JobTrace) NewSpanID() string {
	if jt == nil {
		return ""
	}
	jt.mu.Lock()
	jt.seq++
	id := fmt.Sprintf("%016x", jt.seq)
	jt.mu.Unlock()
	return id
}

// Add records a completed span measured by the caller, minting its ID.
// parent "" parents to the root (the client's span).
func (jt *JobTrace) Add(parent, name, cat string, start, end time.Time, args map[string]string) string {
	if jt == nil {
		return ""
	}
	id := jt.NewSpanID()
	jt.AddWithID(id, parent, name, cat, start, end, args)
	return id
}

// AddWithID records a completed span under a pre-minted ID — used when
// the ID had to exist before the span ended (the job's execute span is
// the parent of engine spans recorded while it is still open).
func (jt *JobTrace) AddWithID(id, parent, name, cat string, start, end time.Time, args map[string]string) {
	if jt == nil {
		return
	}
	if parent == "" {
		parent = jt.tc.SpanID
	}
	rec := SpanRecord{
		SpanID:   id,
		ParentID: parent,
		Name:     name,
		Cat:      cat,
		StartUS:  start.Sub(jt.base).Microseconds(),
		DurUS:    end.Sub(start).Microseconds(),
		Args:     args,
	}
	jt.mu.Lock()
	// Full: the oldest span falls out and is counted. The newest spans
	// are the ones an operator debugging a live job needs.
	if jt.spans.Push(rec) {
		jt.dropped++
	}
	jt.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first plus the drop count.
func (jt *JobTrace) Snapshot() (spans []SpanRecord, dropped uint64) {
	if jt == nil {
		return nil, 0
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.spans.Slice(), jt.dropped
}

// Dropped returns how many spans the ring has evicted.
func (jt *JobTrace) Dropped() uint64 {
	if jt == nil {
		return 0
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.dropped
}

// SpanNode is one node of the assembled span tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree assembles the retained spans into a tree rooted at the client's
// span. The root is synthetic — the client owns that span; the server
// only saw its ID — with the job's full extent as its duration. Spans
// whose parent was evicted from the ring attach to the root, so eviction
// degrades detail, never connectivity.
func (jt *JobTrace) Tree() *SpanNode {
	if jt == nil {
		return nil
	}
	spans, _ := jt.Snapshot()
	root := &SpanNode{SpanRecord: SpanRecord{
		SpanID: jt.tc.SpanID,
		Name:   "request",
		Cat:    "client",
	}}
	nodes := map[string]*SpanNode{root.SpanID: root}
	for i := range spans {
		n := &SpanNode{SpanRecord: spans[i]}
		nodes[n.SpanID] = n
		if end := n.StartUS + n.DurUS; end > root.DurUS {
			root.DurUS = end
		}
	}
	for _, n := range nodes {
		if n == root {
			continue
		}
		parent, ok := nodes[n.ParentID]
		if !ok || parent == n {
			parent = root
		}
		parent.Children = append(parent.Children, n)
	}
	var sortChildren func(n *SpanNode)
	sortChildren = func(n *SpanNode) {
		sort.Slice(n.Children, func(i, k int) bool {
			a, b := n.Children[i], n.Children[k]
			if a.StartUS != b.StartUS {
				return a.StartUS < b.StartUS
			}
			return a.SpanID < b.SpanID
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sortChildren(root)
	return root
}

// WriteChrome renders the trace as Chrome trace_event JSON (complete
// events on one track, span IDs in args), directly loadable in
// about://tracing or Perfetto alongside the process-wide -tracepath
// export.
func (jt *JobTrace) WriteChrome(w io.Writer) error {
	if jt == nil {
		return fmt.Errorf("telemetry: nil job trace has nothing to write")
	}
	spans, _ := jt.Snapshot()
	events := make([]traceEvent, 0, len(spans))
	for _, sp := range spans {
		args := map[string]string{
			"trace_id":       jt.tc.TraceID,
			"span_id":        sp.SpanID,
			"parent_span_id": sp.ParentID,
		}
		for k, v := range sp.Args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: sp.Name, Cat: sp.Cat, Phase: "X",
			TS: sp.StartUS, Dur: sp.DurUS, PID: 1, TID: 1, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events})
}
