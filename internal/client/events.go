package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"hdsmt/internal/obslog"
	"hdsmt/internal/retry"
	"hdsmt/internal/server"
	"hdsmt/internal/telemetry"
)

// requestID resolves the correlation ID for one exchange: the ID already
// bound to ctx (so a caller's ID threads through every request it makes),
// or a freshly minted one. Either way the header is always present, so
// the server never has to invent an ID for a client of this package and
// both sides' logs share one correlation key.
func requestID(ctx context.Context) string {
	if id := obslog.RequestID(ctx); id != "" {
		return id
	}
	return obslog.NewRequestID()
}

// traceContext resolves the trace identity for one exchange, mirroring
// requestID: the context bound to ctx (telemetry.WithTraceContext, so a
// caller's trace threads through every request it makes — a loadgen run
// stitches into one trace per job), or a freshly minted one. The
// traceparent header is always present, so a job submitted by this
// package always roots its span tree at a span the client named.
func traceContext(ctx context.Context) telemetry.TraceContext {
	if tc, ok := telemetry.TraceContextFrom(ctx); ok {
		return tc
	}
	return telemetry.NewTraceContext()
}

// Events fetches a job's timeline snapshot (GET /jobs/{id}/events).
func (c *Client) Events(ctx context.Context, id string) (server.EventsPage, error) {
	var page server.EventsPage
	err := retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodGet, "/jobs/"+id+"/events", nil, &page)
	})
	return page, err
}

// Stream follows a job's timeline live over SSE, invoking fn for every
// event in sequence order. It returns nil once the job's terminal event
// (settled, evicted or interrupted) has been delivered, or the first
// error after reconnection attempts are exhausted. Dropped connections
// resume with Last-Event-ID, so fn never sees a gap or a duplicate;
// after resumes past events already seen (0 streams from the beginning).
// fn returning an error stops the stream and surfaces that error.
func (c *Client) Stream(ctx context.Context, id string, after int64, fn func(server.Event) error) error {
	last := after
	return retry.Do(ctx, c.policy, func() error {
		err := c.streamOnce(ctx, "/jobs/"+id+"/events", &last, false, fn)
		if err != nil && ctx.Err() != nil {
			return retry.Permanent(ctx.Err())
		}
		return err
	})
}

// Watch follows the server-wide event firehose (GET /events) live: every
// job's timeline events interleaved, each stamped with its job ID. The
// feed never settles, so Watch runs until ctx is canceled (returned as
// ctx's error), fn returns an error, or the server drains (returned as
// nil — the feed is over). Dropped connections resume with
// Last-Event-ID like Stream.
func (c *Client) Watch(ctx context.Context, after int64, fn func(server.Event) error) error {
	last := after
	return retry.Do(ctx, c.policy, func() error {
		err := c.streamOnce(ctx, "/events", &last, true, fn)
		if err != nil && ctx.Err() != nil {
			return retry.Permanent(ctx.Err())
		}
		return err
	})
}

// streamOnce runs one SSE connection against path, advancing *last as
// events arrive so a retry resumes exactly where this attempt died.
// follow marks a never-settling feed: terminal job events pass through
// without ending the stream, and a clean EOF means the server drained.
func (c *Client) streamOnce(ctx context.Context, path string, last *int64, follow bool, fn func(server.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return retry.Permanent(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	req.Header.Set(obslog.HeaderRequestID, requestID(ctx))
	req.Header.Set(telemetry.HeaderTraceparent, traceContext(ctx).Traceparent())
	if *last > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", *last))
	}
	// The stream outlives any sane request timeout; rely on ctx instead.
	hc := *c.hc
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return err // transport error: reconnect
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		var decoded struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&decoded) == nil {
			apiErr.Message = decoded.Error
		}
		if apiErr.retryable() {
			return apiErr
		}
		return retry.Permanent(apiErr)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data strings.Builder
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Frame boundary: dispatch what we accumulated.
			if data.Len() > 0 {
				var ev server.Event
				if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
					return retry.Permanent(fmt.Errorf("decoding SSE event: %w", err))
				}
				data.Reset()
				if ev.Seq > *last {
					*last = ev.Seq
					if err := fn(ev); err != nil {
						return retry.Permanent(err)
					}
					terminal = !follow && server.TerminalEvent(ev.Type)
				}
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:/event: lines (redundant with the JSON) and ": hb"
			// heartbeat comments.
		}
	}
	if terminal {
		return nil // server closed after the terminal event: done
	}
	if err := sc.Err(); err != nil {
		return err // torn connection: reconnect from *last
	}
	if follow {
		return nil // clean EOF on a feed: the server drained; the feed is over
	}
	// Clean EOF without a terminal event — the server drained; reconnect.
	return fmt.Errorf("event stream for %s ended before job settled", path)
}
