package server

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdsmt/internal/telemetry"
)

// goroutineID reads the calling goroutine's ID from its stack header.
func goroutineID() int64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	n, _ := strconv.ParseInt(string(id), 10, 64)
	return n
}

// jobWorkers returns the IDs of the goroutines running jobWorker.
func jobWorkers() map[int64]bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	ids := map[int64]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "server.(*Server).jobWorker") {
			id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
			n, _ := strconv.ParseInt(id, 10, 64)
			ids[n] = true
		}
	}
	return ids
}

// launchTestJob registers a job and launches body on a job worker the way
// an admitted submission is launched.
func launchTestJob(t *testing.T, s *Server, body func(context.Context, *job) (any, error)) *job {
	t.Helper()
	j, ctx, err := s.newJob(JobSpec{Kind: "run"}, "t", 1, "", telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	s.adm.adopt("t")
	s.launchJob(ctx, j, body)
	return j
}

// awaitSettled waits for j to settle and returns its state and error.
// It then gives the worker the moment it needs to return to idle, so a
// job launched next can find it.
func awaitSettled(t *testing.T, j *job) (state, errmsg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j.mu.Lock()
		state, errmsg = j.state, j.errmsg
		j.mu.Unlock()
		if settledState(state) {
			time.Sleep(2 * time.Millisecond)
			return state, errmsg
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not settle (state %q)", j.id, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobWorkersReused runs jobs one after another: they must share a
// bounded number of worker goroutines, a panicking or canceled job must
// settle as before and leave its worker serving the next job, and every
// worker must exit once it has idled for workerIdle.
func TestJobWorkersReused(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(nil, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	before, base := jobWorkers(), runtime.NumGoroutine()

	ran := map[int64]bool{}
	record := func(context.Context, *job) (any, error) {
		ran[goroutineID()] = true
		return map[string]int{"ok": 1}, nil
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		if state, msg := awaitSettled(t, launchTestJob(t, s, record)); state != "done" {
			t.Fatalf("job %d settled %q (%s), want done", i, state, msg)
		}
	}
	if len(ran) > 2 {
		t.Errorf("%d sequential jobs ran on %d goroutines, want at most 2", jobs, len(ran))
	}

	j := launchTestJob(t, s, func(context.Context, *job) (any, error) {
		ran[goroutineID()] = true
		panic("orchestration bug")
	})
	if state, msg := awaitSettled(t, j); state != "failed" || !strings.Contains(msg, "orchestration bug") {
		t.Errorf("panicking job settled %q (%s), want failed with the panic", state, msg)
	}
	if got := reg.Total(telemetry.MetricServerJobPanics); got != 1 {
		t.Errorf("panic counter = %v, want 1", got)
	}

	started := make(chan struct{})
	j = launchTestJob(t, s, func(ctx context.Context, _ *job) (any, error) {
		ran[goroutineID()] = true
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	j.cancel()
	if state, msg := awaitSettled(t, j); state != "canceled" {
		t.Errorf("canceled job settled %q (%s), want canceled", state, msg)
	}

	if state, msg := awaitSettled(t, launchTestJob(t, s, record)); state != "done" {
		t.Errorf("job after the panic and the cancellation settled %q (%s), want done", state, msg)
	}
	if len(ran) > 2 {
		t.Errorf("%d jobs ran on %d goroutines, want at most 2", jobs+3, len(ran))
	}

	// Every worker this server started exits after idling workerIdle, and
	// the goroutine count is back where it was before the first job.
	wait := workerIdle + 5*time.Second
	deadline := time.Now().Add(wait)
	for {
		left := 0
		for id := range jobWorkers() {
			if !before[id] {
				left++
			}
		}
		n := runtime.NumGoroutine()
		if left == 0 && n <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v after the last job: %d job workers left, %d goroutines, %d before the first job", wait, left, n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobWorkersExitOnDrain requires an idle worker to exit as soon as
// the server drains, well before its idle period ends: Drain returns
// only after it has.
func TestJobWorkersExitOnDrain(t *testing.T) {
	s, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	var worker int64
	awaitSettled(t, launchTestJob(t, s, func(context.Context, *job) (any, error) {
		worker = goroutineID()
		return nil, nil
	}))
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The worker's last step is its deferred WaitGroup release; allow it
	// the instant it takes to leave the scheduler's list.
	deadline := time.Now().Add(workerIdle / 10)
	for jobWorkers()[worker] {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d still running %v after Drain returned", worker, workerIdle/10)
		}
		time.Sleep(time.Millisecond)
	}
}
