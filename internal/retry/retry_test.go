package retry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// recordSleeps returns a Sleep hook appending every delay to dst without
// actually waiting.
func recordSleeps(dst *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*dst = append(*dst, d)
		return nil
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var sleeps []time.Duration
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 5, Sleep: recordSleeps(&sleeps)}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 {
		t.Errorf("op called %d times, want 3", calls)
	}
	if len(sleeps) != 2 {
		t.Errorf("slept %d times, want 2", len(sleeps))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var sleeps []time.Duration
	calls := 0
	base := errors.New("always fails")
	err := Do(context.Background(), Policy{Attempts: 3, Sleep: recordSleeps(&sleeps)}, func() error {
		calls++
		return base
	})
	if !errors.Is(err, base) {
		t.Fatalf("Do = %v, want wrapped %v", err, base)
	}
	if calls != 3 {
		t.Errorf("op called %d times, want 3", calls)
	}
	if len(sleeps) != 2 {
		t.Errorf("slept %d times, want 2 (no sleep after the final attempt)", len(sleeps))
	}
}

func TestDoBackoffDoublesAndCaps(t *testing.T) {
	var sleeps []time.Duration
	p := Policy{
		Attempts:  6,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  40 * time.Millisecond,
		Jitter:    -1, // deterministic: raw schedule
		Sleep:     recordSleeps(&sleeps),
	}
	_ = Do(context.Background(), p, func() error { return errors.New("x") })
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		w *= time.Millisecond
		if sleeps[i] != w {
			t.Errorf("sleep %d = %v, want %v", i, sleeps[i], w)
		}
	}
}

func TestDoJitterIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var sleeps []time.Duration
		p := Policy{Attempts: 5, BaseDelay: 100 * time.Millisecond, Jitter: 0.5,
			Seed: seed, Sleep: recordSleeps(&sleeps)}
		_ = Do(context.Background(), p, func() error { return errors.New("x") })
		return sleeps
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed, different schedule at %d: %v vs %v", i, a[i], b[i])
		}
		// Jitter 0.5 keeps every delay within [d/2, d).
		base := 100 * time.Millisecond << i
		if a[i] < base/2 || a[i] >= base {
			t.Errorf("sleep %d = %v outside jitter window [%v, %v)", i, a[i], base/2, base)
		}
	}
	if c := run(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds produced an identical schedule")
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	calls := 0
	base := errors.New("not found")
	err := Do(context.Background(), Policy{Attempts: 5, Sleep: recordSleeps(new([]time.Duration))}, func() error {
		calls++
		return Permanent(base)
	})
	if err != base {
		t.Fatalf("Do = %v, want the unwrapped permanent error", err)
	}
	if calls != 1 {
		t.Errorf("op called %d times, want 1", calls)
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	var sleeps []time.Duration
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 3, BaseDelay: time.Millisecond, Sleep: recordSleeps(&sleeps)}, func() error {
		calls++
		if calls == 1 {
			return After(fmt.Errorf("throttled"), 1234*time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sleeps) != 1 || sleeps[0] != 1234*time.Millisecond {
		t.Errorf("sleeps = %v, want exactly the hinted 1234ms", sleeps)
	}
}

func TestDoStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{Attempts: 10, BaseDelay: time.Hour}, func() error {
		calls++
		cancel() // cancel mid-backoff: the sleep must return promptly
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("op called %d times after cancel, want 1", calls)
	}
}

// TestDoWaitSequencePinned pins the jittered wait schedule of the default
// policy (10ms base doubling to a 1s cap, 50% jitter) for an always-failing
// op: the jitter source must draw the same values in the same order, one
// draw per wait.
func TestDoWaitSequencePinned(t *testing.T) {
	want := map[int64][]time.Duration{
		1: {8023301, 19405090, 33291201, 57508567, 113970999},
		7: {9594460, 12315071, 24827751, 76462486, 135858843},
	}
	for seed, w := range want {
		var sleeps []time.Duration
		p := Policy{Attempts: 6, Seed: seed, Sleep: recordSleeps(&sleeps)}
		_ = Do(context.Background(), p, func() error { return errors.New("x") })
		if !slices.Equal(sleeps, w) {
			t.Errorf("seed %d: waits = %d, want %d", seed, sleeps, w)
		}
	}
}

// TestDoFirstAttemptSuccessAllocatesNothing: a call that never waits must
// not pay for the jitter source (journal appends and client requests
// almost always succeed first time).
func TestDoFirstAttemptSuccessAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	op := func() error { return nil }
	if allocs := testing.AllocsPerRun(100, func() { _ = Do(ctx, Policy{}, op) }); allocs != 0 {
		t.Errorf("first-attempt success allocates %v times, want 0", allocs)
	}
}

// BenchmarkDo measures the common case: the op succeeds first time.
func BenchmarkDo(b *testing.B) {
	ctx := context.Background()
	op := func() error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Do(ctx, Policy{}, op); err != nil {
			b.Fatal(err)
		}
	}
}
