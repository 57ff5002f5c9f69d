package server

import (
	"encoding/json"
	"strconv"
	"time"

	"hdsmt/internal/faultinject"
	"hdsmt/internal/jsonl"
)

// The job journal makes the server's job table durable: every job
// transition appends one JSONL record, so a daemon killed at any instant
// can replay the file and account for every job it ever accepted. It is
// the same crash-safe substrate as the engine's checkpoint journal
// (internal/jsonl) — a torn final line is counted, skipped and healed,
// and each record goes to the file in one write. Appends are best-effort
// by contract: a failed one is logged, never fails a job.
//
// Record vocabulary, in a job's lifecycle order:
//
//	accepted    — spec admitted; carries the full JobSpec, tenant, created
//	running     — execution began
//	done        — settled successfully; carries the result JSON
//	failed      — settled with an error (including deadline expiry, panics)
//	canceled    — settled by explicit cancellation
//	interrupted — a restarted daemon found the job unfinished and could
//	              not resume it; terminal, inspectable via GET /jobs/{id}
//	evicted     — DELETE released a settled job, or admission rejected a
//	              new one; replay drops it
//	timeline    — a durable step with no state change (queued, admitted,
//	              canceled, retried)
//
// Any record may carry tl, the transition's timeline event (see
// events.go): a state change and its timeline entry are one append, so a
// crash cannot keep one without the other. Replay applies a record's
// state effect, then restores its tl into the job's in-memory ring.
// Journals that wrote every timeline event as its own "timeline" record
// replay unchanged.
type jobEvent struct {
	ID    string `json:"id"`
	Event string `json:"event"`

	// accepted records only.
	Tenant      string   `json:"tenant,omitempty"`
	Priority    int      `json:"priority,omitempty"`
	Spec        *JobSpec `json:"spec,omitempty"`
	Created     string   `json:"created,omitempty"`
	RequestID   string   `json:"request_id,omitempty"`
	Traceparent string   `json:"traceparent,omitempty"`

	// settle and interrupted records only.
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Finished string          `json:"finished,omitempty"`

	// TL is the durable timeline event of the transition, on any record.
	TL *Event `json:"tl,omitempty"`
}

// appendJSON appends json.Marshal(ev) to b without reflecting over the
// record: the envelope and tl are written by hand, and only Spec — a wide
// struct, marshaled for accepted records alone — goes through
// json.Marshal. Result is spliced in verbatim: it holds json.Marshal
// output (compact, HTML-escaped; settle encodes it), which json.Marshal
// would copy unchanged. TestJobEventAppendMatchesMarshal and
// FuzzJobEventRecord hold the bytes to json.Marshal's.
func (ev *jobEvent) appendJSON(b []byte) ([]byte, error) {
	b = jsonl.AppendString(append(b, `{"id":`...), ev.ID)
	b = jsonl.AppendString(append(b, `,"event":`...), ev.Event)
	b = appendStringField(b, `,"tenant":`, ev.Tenant)
	if ev.Priority != 0 {
		b = strconv.AppendInt(append(b, `,"priority":`...), int64(ev.Priority), 10)
	}
	if ev.Spec != nil {
		spec, err := json.Marshal(ev.Spec)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"spec":`...), spec...)
	}
	b = appendStringField(b, `,"created":`, ev.Created)
	b = appendStringField(b, `,"request_id":`, ev.RequestID)
	b = appendStringField(b, `,"traceparent":`, ev.Traceparent)
	b = appendStringField(b, `,"error":`, ev.Error)
	if len(ev.Result) > 0 {
		b = append(append(b, `,"result":`...), ev.Result...)
	}
	b = appendStringField(b, `,"finished":`, ev.Finished)
	if ev.TL != nil {
		var err error
		if b, err = ev.TL.appendJSON(append(b, `,"tl":`...)); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendStringField appends an omitempty string field: nothing for "".
func appendStringField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return jsonl.AppendString(append(b, key...), v)
}

// openJobJournal opens (creating if needed) the job journal at path and
// returns its writer, every well-formed event already present, and the
// count of torn lines healed away — surfaced in telemetry by the caller.
func openJobJournal(path string) (*jsonl.Writer, []jobEvent, int, error) {
	var events []jobEvent
	jj, torn, err := jsonl.Open(path, faultinject.PointJobJournalAppend, func(line []byte) error {
		var ev jobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return jj, events, torn, nil
}

// rfc3339 formats journal timestamps; empty for the zero time so replayed
// events round-trip without inventing instants.
func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func parseRFC3339(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}
