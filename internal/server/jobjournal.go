package server

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"hdsmt/internal/faultinject"
	"hdsmt/internal/jsonl"
	"hdsmt/internal/retry"
)

// The job journal makes the server's job table durable: every job
// transition appends one JSONL record, so a daemon killed at any instant
// can replay the file and account for every job it ever accepted. It is
// the same crash-safe substrate as the engine's checkpoint journal
// (internal/jsonl) — a torn final line is counted, skipped and healed.
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

type jobJournal struct {
	mu sync.Mutex
	f  *os.File
}

// openJobJournal opens (creating if needed) the job journal at path and
// returns every well-formed event already present, plus the count of torn
// lines healed away — surfaced in telemetry by the caller.
func openJobJournal(path string) (*jobJournal, []jobEvent, int, error) {
	var events []jobEvent
	f, torn, err := jsonl.OpenHealed(path, func(line []byte) error {
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
	return &jobJournal{f: f}, events, torn, nil
}

// append journals one event. Best-effort by contract — the caller logs
// but never fails a job over a journal write — but transient failures are
// retried so a momentary stall doesn't silently punch a hole in the
// recovery record. Single Write call per event: concurrent settlements
// never interleave bytes.
func (jj *jobJournal) append(ev jobEvent) error {
	if jj == nil {
		return nil
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	jj.mu.Lock()
	defer jj.mu.Unlock()
	return retry.Do(context.Background(), jobJournalRetry, func() error {
		if err := faultinject.Hit(faultinject.PointJobJournalAppend); err != nil {
			return err
		}
		_, werr := jj.f.Write(b)
		return werr
	})
}

var jobJournalRetry = retry.Policy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

func (jj *jobJournal) Close() error {
	if jj == nil {
		return nil
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	return jj.f.Close()
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
