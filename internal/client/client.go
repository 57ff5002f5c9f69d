// Package client is a Go client for the hdsmtd job API that cooperates
// with the server's backpressure: 429 and 503 responses are retried with
// capped exponential backoff (internal/retry), honoring the server's
// Retry-After hint exactly, while 4xx validation failures surface
// immediately as permanent errors. It exists so in-repo tools and tests
// stop hand-rolling HTTP loops against the daemon.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hdsmt/internal/obslog"
	"hdsmt/internal/retry"
	"hdsmt/internal/server"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/tshist"
)

// Client talks to one hdsmtd instance.
type Client struct {
	base   string
	apiKey string
	hc     *http.Client
	policy retry.Policy
	poll   time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithAPIKey sets the X-API-Key header identifying this client's tenant
// for the server's quotas.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithHTTPClient replaces the underlying http.Client (timeouts, proxies,
// test transports).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryPolicy replaces the default backoff schedule used for 429/503
// responses and transport errors.
func WithRetryPolicy(p retry.Policy) Option { return func(c *Client) { c.policy = p } }

// WithPollInterval sets how often Wait polls job status (default 100ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// New builds a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimSuffix(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
		// Submissions are cheap to repeat (the job only exists once the
		// server says 202), so lean on the server's Retry-After rather
		// than long local waits.
		policy: retry.Policy{Attempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second},
		poll:   100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backpressure hint (429/503), zero
	// otherwise. It implements retry.Delayer through RetryDelay, so
	// retry.Do waits exactly as long as the server asked.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.StatusCode, e.Message)
}

// RetryDelay implements retry.Delayer.
func (e *APIError) RetryDelay() time.Duration { return e.RetryAfter }

// retryable reports whether the response is worth retrying: explicit
// backpressure only. Validation errors (400/404/409/413) repeat
// identically, so they come back as permanent.
func (e *APIError) retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// Submit posts spec and returns the accepted job's status, retrying
// through server backpressure (429/503 + Retry-After).
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, err
	}
	var st server.Status
	err = retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodPost, "/jobs", body, &st)
	})
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (server.Status, error) {
	var st server.Status
	err := retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	})
	return st, err
}

// List fetches all jobs the server knows, including journal-recovered
// ones.
func (c *Client) List(ctx context.Context) ([]server.Status, error) {
	var out []server.Status
	err := retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodGet, "/jobs", nil, &out)
	})
	return out, err
}

// Wait polls until the job settles (done, failed, canceled or
// interrupted) or ctx expires, returning the final status.
func (c *Client) Wait(ctx context.Context, id string) (server.Status, error) {
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done", "failed", "canceled", "interrupted":
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Result decodes a finished job's result into out. A job that settled
// unsuccessfully surfaces as a permanent *APIError with status 409.
func (c *Client) Result(ctx context.Context, id string, out any) error {
	return retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, out)
	})
}

// History fetches the server's windowed metrics view (GET
// /metrics/history): per-kind throughput and latency quantiles over
// 1m/5m/30m, current gauges, and SLO burn status.
func (c *Client) History(ctx context.Context) (tshist.History, error) {
	var h tshist.History
	err := retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodGet, "/metrics/history", nil, &h)
	})
	return h, err
}

// Trace fetches a job's assembled span tree (GET /jobs/{id}/trace).
func (c *Client) Trace(ctx context.Context, id string) (server.TracePage, error) {
	var tp server.TracePage
	err := retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodGet, "/jobs/"+id+"/trace", nil, &tp)
	})
	return tp, err
}

// Cancel requests cancellation (POST /jobs/{id}/cancel). Canceling an
// already-settled job returns a permanent 409 *APIError.
func (c *Client) Cancel(ctx context.Context, id string) (server.Status, error) {
	var st server.Status
	err := retry.Do(ctx, c.policy, func() error {
		return c.do(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, &st)
	})
	return st, err
}

// do performs one HTTP exchange, classifying failures for retry.Do:
// transport errors and 429/503 are retryable (the latter carrying the
// server's Retry-After), everything else non-2xx is permanent.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return retry.Permanent(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	req.Header.Set(obslog.HeaderRequestID, requestID(ctx))
	req.Header.Set(telemetry.HeaderTraceparent, traceContext(ctx).Traceparent())
	resp, err := c.hc.Do(req)
	if err != nil {
		return err // transport error: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		var decoded struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&decoded) == nil {
			apiErr.Message = decoded.Error
		}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		if apiErr.retryable() {
			return apiErr
		}
		return retry.Permanent(apiErr)
	}
	if out == nil {
		return nil
	}
	// The body is read whole into a pooled buffer and decoded from there:
	// json.Unmarshal copies what it keeps, so the buffer can be reused.
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return retry.Permanent(fmt.Errorf("decoding %s %s response: %w", method, path, err))
	}
	if err := decode(buf.Bytes(), out); err != nil {
		return retry.Permanent(fmt.Errorf("decoding %s %s response: %w", method, path, err))
	}
	return nil
}

// decode stores body in out as json.Unmarshal does. Into a
// *json.RawMessage — a job's result read to be passed on, not inspected —
// it copies the body trimmed of surrounding whitespace once json.Valid
// accepts it, the bytes Unmarshal would store, without walking the value
// a second time.
func decode(body []byte, out any) error {
	raw, ok := out.(*json.RawMessage)
	if !ok {
		return json.Unmarshal(body, out)
	}
	if !json.Valid(body) {
		return json.Unmarshal(body, out) // the same error Unmarshal reports
	}
	*raw = append((*raw)[:0], bytes.Trim(body, " \t\r\n")...)
	return nil
}

// bodyBufs recycles the buffers response bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBodyBuf returns b to the pool unless a rare large body grew it: a
// pooled buffer keeps its capacity for as long as it lives.
func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() > 1<<20 {
		return
	}
	b.Reset()
	bodyBufs.Put(b)
}
