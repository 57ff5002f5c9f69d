// Package retry implements capped exponential backoff with jitter for
// transient failures: journal appends and HTTP clients all share one Do
// helper instead of hand-rolled sleep loops.
//
// The policy is deliberately small: attempts, base/cap delay, a jitter
// fraction and a seed. Jitter is drawn from a seeded source so tests (and
// chaos runs) replay identical schedules; none of the timing ever reaches
// a BENCH artifact, so determinism of results is unaffected either way.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy configures Do. The zero value is usable: 4 attempts, 10ms base
// delay doubling to a 1s cap, 50% jitter.
type Policy struct {
	// Attempts bounds total tries, including the first; 0 means 4.
	Attempts int
	// BaseDelay is the wait after the first failure; it doubles per
	// attempt. 0 means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means 1s.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized (0..1): a delay d
	// becomes d*(1-Jitter) + rand*d*Jitter. Negative means no jitter;
	// 0 means the 0.5 default.
	Jitter float64
	// Seed drives the jitter source; a fixed seed replays the identical
	// backoff schedule. 0 means a fixed default seed (1).
	Seed int64
	// Sleep, when non-nil, replaces the context-aware sleep between
	// attempts — a test hook for capturing the schedule without waiting
	// it out.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) attempts() int {
	if p.Attempts > 0 {
		return p.Attempts
	}
	return 4
}

func (p Policy) base() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 10 * time.Millisecond
}

func (p Policy) cap() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return time.Second
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.5
	case p.Jitter > 1:
		return 1
	}
	return p.Jitter
}

func (p Policy) seed() int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 1
}

// permanentError marks an error Do must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns err unchanged
// (nil stays nil). Use it for failures more attempts cannot fix: a
// missing file, a 4xx response, a corrupt entry.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Delayer is implemented by errors that carry their own retry delay —
// e.g. an HTTP 429 with a Retry-After header. Do waits exactly that long
// instead of the backoff schedule: the server's hint wins, uncapped, so
// an honest client never comes back early.
type Delayer interface {
	RetryDelay() time.Duration
}

// After wraps err with an explicit retry delay, for surfacing server
// backpressure hints (Retry-After) through Do.
func After(err error, d time.Duration) error {
	return &delayedError{err: err, delay: d}
}

type delayedError struct {
	err   error
	delay time.Duration
}

func (e *delayedError) Error() string             { return e.err.Error() }
func (e *delayedError) Unwrap() error             { return e.err }
func (e *delayedError) RetryDelay() time.Duration { return e.delay }

// Do runs op until it succeeds, returns a Permanent error, exhausts the
// policy's attempts, or ctx is done. The final failure is returned
// wrapped with the attempt count (Permanent failures come back
// unwrapped, as handed to Permanent).
func Do(ctx context.Context, p Policy, op func() error) error {
	attempts := p.attempts()
	// The jitter source is seeded at the first wait, not here: most calls
	// succeed first time and never wait, so they allocate nothing. It is
	// still fresh per call and draws once per wait, so a Policy replays
	// the same schedule.
	var rng *rand.Rand
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	delay := p.base()
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return fmt.Errorf("retry: %w (after %d attempts: %v)", cerr, attempt-1, err)
			}
			return cerr
		}
		err = op()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempt >= attempts {
			return fmt.Errorf("retry: %d attempts: %w", attempts, err)
		}
		wait := delay
		if j := p.jitter(); j > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.seed()))
			}
			wait = time.Duration(float64(wait) * (1 - j + j*rng.Float64()))
		}
		var delayer Delayer
		if errors.As(err, &delayer) {
			// The failing side told us when to come back; believe it.
			wait = delayer.RetryDelay()
		}
		if serr := sleep(ctx, wait); serr != nil {
			return fmt.Errorf("retry: %w (after %d attempts: %v)", serr, attempt, err)
		}
		if delay = delay * 2; delay > p.cap() {
			delay = p.cap()
		}
	}
}

// sleepCtx waits d or until ctx is done, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
