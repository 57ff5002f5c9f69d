package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hdsmt/internal/jsonl"
	"hdsmt/internal/obslog"
	"hdsmt/internal/telemetry"
)

// Event is one entry in a job's timeline: every lifecycle transition the
// server observes, stamped relative to the job's acceptance so the
// timeline is causally readable without correlating wall clocks. Events
// live in a bounded in-memory ring (queryable via GET /jobs/{id}/events,
// streamed live over SSE) and — for everything below progress frequency —
// in the durable job journal, so a restarted daemon serves the timeline
// of jobs it accepted in a previous life.
type Event struct {
	// Seq numbers events per job from 1, monotonically; it doubles as the
	// SSE event id, so Last-Event-ID resume is exact.
	Seq int64 `json:"seq"`
	// TMS is milliseconds since the job was accepted.
	TMS float64 `json:"t_ms"`
	// Type is the lifecycle transition; see the Event* constants.
	Type string `json:"type"`
	// Detail carries transition-specific context: the job kind on
	// accepted, done/total on progress, the terminal state on settled.
	Detail string `json:"detail,omitempty"`
	// Job names the originating job on the server-wide GET /events
	// firehose, where events from every job interleave; empty on per-job
	// streams, where it would be redundant.
	Job string `json:"job,omitempty"`
}

// appendJSON appends json.Marshal(ev) to b, for journal records and SSE
// data lines. A TMS that is NaN or infinite is an error, as it is to
// json.Marshal.
func (ev *Event) appendJSON(b []byte) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"seq":`...), ev.Seq, 10)
	b, err := jsonl.AppendFloat(append(b, `,"t_ms":`...), ev.TMS)
	if err != nil {
		return b, err
	}
	b = jsonl.AppendString(append(b, `,"type":`...), ev.Type)
	b = appendStringField(b, `,"detail":`, ev.Detail)
	b = appendStringField(b, `,"job":`, ev.Job)
	return append(b, '}'), nil
}

// appendSSE appends ev's SSE frame: its sequence number as the event id,
// its type as the event name and its JSON as the data line.
func (ev *Event) appendSSE(b []byte) ([]byte, error) {
	b = strconv.AppendInt(append(b, "id: "...), ev.Seq, 10)
	b = append(append(append(b, "\nevent: "...), ev.Type...), "\ndata: "...)
	b, err := ev.appendJSON(b)
	if err != nil {
		return b, err
	}
	return append(b, "\n\n"...), nil
}

// Timeline event types, in rough lifecycle order.
const (
	EventAccepted    = "accepted"     // spec validated and registered
	EventQueued      = "queued"       // admission had no free slot; waiting
	EventAdmitted    = "admitted"     // admission granted an execution slot
	EventStarted     = "started"      // job body began executing
	EventProgress    = "progress"     // done/total advanced (ring only)
	EventFrontUpdate = "front-update" // pareto incumbent front changed (ring only)
	EventRetried     = "retried"      // relaunched after a daemon restart
	EventCanceled    = "canceled"     // cancellation requested
	EventSettled     = "settled"      // reached a terminal state (detail names it)
	EventEvicted     = "evicted"      // removed from the job table
	EventInterrupted = "interrupted"  // orphaned by a crash; not resumable
)

// TerminalEvent reports whether typ ends a job's timeline: SSE streams
// close after delivering it, and clients stop following there.
func TerminalEvent(typ string) bool {
	switch typ {
	case EventSettled, EventEvicted, EventInterrupted:
		return true
	}
	return false
}

// journaledEvent reports whether typ is durable: high-frequency progress
// and front-update events stay in the in-memory ring; everything else
// is journaled so replayed jobs keep their timeline.
func journaledEvent(typ string) bool {
	return typ != EventProgress && typ != EventFrontUpdate
}

// timeline is one job's bounded event ring plus its live subscribers.
// Appends are cheap (ring push + one non-blocking notify per subscriber);
// subscribers pull events by sequence number, so a slow consumer lags
// without ever blocking the job.
type timeline struct {
	// neverClose marks the server-wide feed: jobs' terminal events pass
	// through it without ending the stream, because the feed outlives
	// every job.
	neverClose bool

	mu      sync.Mutex
	created time.Time
	events  telemetry.Ring[Event]
	seq     int64 // last assigned sequence number
	closed  bool  // a terminal event was appended
	subs    map[chan struct{}]struct{}
}

func newTimeline(created time.Time, capacity int) *timeline {
	if capacity <= 0 {
		capacity = defaultTimelineCap
	}
	return &timeline{
		created: created,
		events:  telemetry.NewRing[Event](capacity),
		subs:    map[chan struct{}]struct{}{},
	}
}

const defaultTimelineCap = 512

// append records one event now, assigning the next sequence number. job
// is empty on per-job timelines and names the origin on the feed.
func (tl *timeline) append(typ, detail, job string) Event {
	tl.mu.Lock()
	tl.seq++
	ev := Event{
		Seq:    tl.seq,
		TMS:    float64(time.Since(tl.created).Microseconds()) / 1e3,
		Type:   typ,
		Detail: detail,
		Job:    job,
	}
	tl.push(ev)
	tl.mu.Unlock()
	return ev
}

// restore re-inserts a journaled event at replay, preserving its original
// sequence number and relative timestamp.
func (tl *timeline) restore(ev Event) {
	tl.mu.Lock()
	if ev.Seq > tl.seq {
		tl.seq = ev.Seq
	}
	tl.push(ev)
	tl.mu.Unlock()
}

// push appends under tl.mu: ring insert, close-on-terminal, notify.
func (tl *timeline) push(ev Event) {
	// Full: the oldest event falls out. The accepted→settled spine stays
	// readable as long as cap exceeds the job's progress chatter.
	tl.events.Push(ev)
	if TerminalEvent(ev.Type) && !tl.neverClose {
		tl.closed = true
	}
	for ch := range tl.subs {
		select {
		case ch <- struct{}{}:
		default: // already pending; notifications coalesce
		}
	}
}

// after returns every retained event with Seq > seq, in order, plus
// whether the timeline is closed (no further events will arrive).
func (tl *timeline) after(seq int64) ([]Event, bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var out []Event
	for i := 0; i < tl.events.Len(); i++ {
		if ev := tl.events.At(i); ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out, tl.closed
}

// subscribe registers a wake-up channel for new events; the returned
// cancel must be called (streams defer it) or the channel leaks until the
// job is evicted.
func (tl *timeline) subscribe() (ch chan struct{}, cancel func()) {
	ch = make(chan struct{}, 1)
	tl.mu.Lock()
	tl.subs[ch] = struct{}{}
	tl.mu.Unlock()
	return ch, func() {
		tl.mu.Lock()
		delete(tl.subs, ch)
		tl.mu.Unlock()
	}
}

// event records one transition of j: it appends the timeline event to j
// — and, stamped with the job ID, to the server-wide feed — journals it,
// and writes the lifecycle log line of a settlement or a resumption from
// the journaled record. It is the single place job history is recorded.
// rec is the state record of a transition that changes the job's durable
// state (accepted, running, done/failed/canceled, interrupted, evicted):
// the timeline event rides in it, so the state and its timeline entry
// land in one append that a crash cannot split. A nil rec journals a
// durable event as a bare "timeline" record.
func (s *Server) event(j *job, typ, detail string, rec *jobEvent) {
	ev := j.tl.append(typ, detail, "")
	s.feed.append(typ, detail, j.id)
	s.jobEvents.Inc()
	if rec == nil {
		if !journaledEvent(typ) {
			return
		}
		rec = &jobEvent{Event: "timeline"}
	}
	rec.ID, rec.TL = j.id, &ev
	if err := s.jj.Append(rec.appendJSON); err != nil {
		j.log.Error("journaling event failed", obslog.Err(err), obslog.F("type", typ))
	}
	switch {
	case typ == EventSettled && rec.Event == "done":
		j.log.Info("job settled", obslog.F("state", rec.Event), obslog.F("kind", j.spec.Kind))
	case typ == EventSettled:
		j.log.Warn("job settled", obslog.F("state", rec.Event), obslog.F("kind", j.spec.Kind),
			obslog.F("err", rec.Error))
	case typ == EventRetried:
		j.log.Info("job resumed after restart", obslog.F("archive", j.spec.Archive))
	}
}

// EventsPage is the body of GET /jobs/{id}/events.
type EventsPage struct {
	ID        string  `json:"id"`
	RequestID string  `json:"request_id,omitempty"`
	State     string  `json:"state"`
	Closed    bool    `json:"closed"` // terminal event present; no more will come
	Events    []Event `json:"events"`
}

// handleEvents serves a job's timeline: the JSON snapshot by default, or
// a live SSE stream when the client asks for text/event-stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if wantsSSE(r) {
		s.streamEvents(w, r, j)
		return
	}
	events, closed := j.tl.after(0)
	if events == nil {
		events = []Event{}
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, EventsPage{
		ID: j.id, RequestID: j.requestID, State: state, Closed: closed, Events: events,
	})
}

// wantsSSE reports whether the request negotiates Server-Sent Events.
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt, _, _ := strings.Cut(part, ";")
			if strings.TrimSpace(mt) == "text/event-stream" {
				return true
			}
		}
	}
	return false
}

// FeedPage is the JSON snapshot body of GET /events: the retained tail
// of the server-wide event feed, every event stamped with its job ID.
type FeedPage struct {
	Events []Event `json:"events"`
}

// handleEventsFeed serves the server-wide firehose: every job's timeline
// events interleaved in one stream, each stamped with its job ID. SSE
// when negotiated (the stream never closes on job settlement — only on
// disconnect or drain), JSON snapshot of the retained ring otherwise.
func (s *Server) handleEventsFeed(w http.ResponseWriter, r *http.Request) {
	if wantsSSE(r) {
		s.streamTimeline(w, r, s.feed)
		return
	}
	events, _ := s.feed.after(0)
	if events == nil {
		events = []Event{}
	}
	writeJSON(w, http.StatusOK, FeedPage{Events: events})
}

// streamEvents streams one job's timeline over SSE.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *job) {
	s.streamTimeline(w, r, j.tl)
}

// streamTimeline is the SSE path: it replays the timeline after the
// client's Last-Event-ID (or ?after=seq), then follows live until the
// timeline closes (a job's terminal event; the feed never closes), the
// client disconnects, or the server drains. Heartbeat comments keep
// intermediaries from timing the stream out; the event id is the
// timeline sequence number, so a dropped connection resumes exactly
// where it left off.
func (s *Server) streamTimeline(w http.ResponseWriter, r *http.Request, tl *timeline) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("response writer cannot stream"))
		return
	}
	after := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			after = n
		}
	} else if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			after = n
		}
	}

	notify, unsubscribe := tl.subscribe()
	defer unsubscribe()
	s.sseStreams.Inc()
	defer s.sseStreams.Dec()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// The headers go out in the first flush: with the backlog when one is
	// waiting, alone otherwise, so the client sees the stream open. A
	// stream that reaches the terminal event returns without a flush, so
	// net/http sends the last frames with the end of the body in one
	// write; a job that settled before its stream opened is one response,
	// with a Content-Length when the backlog fits net/http's 2 KB buffer.
	// The heartbeat ticker starts the first time the stream waits.
	var (
		buf       []byte
		heartbeat *time.Ticker
		flushed   bool
	)
	for {
		events, closed := tl.after(after)
		buf = buf[:0]
		for _, ev := range events {
			frame, err := ev.appendSSE(buf)
			if err != nil {
				w.Write(buf)
				return
			}
			buf = frame
			after = ev.Seq
			s.sseEvents.Inc()
		}
		if len(buf) > 0 {
			w.Write(buf)
		}
		if closed {
			// Everything up to the terminal event has been delivered.
			return
		}
		if len(events) > 0 || !flushed {
			fl.Flush()
			flushed = true
		}
		if heartbeat == nil {
			heartbeat = time.NewTicker(s.sseHeartbeat)
			defer heartbeat.Stop()
		}
		select {
		case <-notify:
		case <-heartbeat.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}
