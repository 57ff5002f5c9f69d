package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Reporter prints a periodic one-line progress summary to a writer,
// assembled entirely from a Registry's counters: evaluations done (search
// evaluations when a search is instrumented, completed engine jobs
// otherwise), the engine's cache-hit rate, and — once SetTotal has
// announced a target — an ETA extrapolated from the completion rate.
// Wall-clock estimates stay on stderr; they never enter artifacts.
type Reporter struct {
	w     io.Writer
	reg   *Registry
	every time.Duration
	start time.Time
	total atomic.Int64

	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// StartReporter begins printing a progress line every interval (minimum
// one second). Stop prints one final line and halts it. A nil registry
// yields a Reporter that does nothing.
func StartReporter(w io.Writer, reg *Registry, every time.Duration) *Reporter {
	if every < time.Second {
		every = time.Second
	}
	r := &Reporter{
		w: w, reg: reg, every: every, start: time.Now(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if reg == nil {
		close(r.done)
		return r
	}
	go r.loop()
	return r
}

// SetTotal announces the run's evaluation target, enabling the ETA term.
func (r *Reporter) SetTotal(n int) {
	if r == nil {
		return
	}
	r.total.Store(int64(n))
}

// Stop halts the reporter after printing one final line (so runs shorter
// than the interval still report once). Safe to call more than once.
func (r *Reporter) Stop() {
	if r == nil || r.reg == nil {
		return
	}
	r.once.Do(func() {
		close(r.stop)
		<-r.done
		fmt.Fprintln(r.w, r.line())
	})
}

func (r *Reporter) loop() {
	defer close(r.done)
	t := time.NewTicker(r.every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fmt.Fprintln(r.w, r.line())
		case <-r.stop:
			return
		}
	}
}

// line renders one progress line from the registry's counters.
func (r *Reporter) line() string {
	unit := "evaluations"
	done := r.reg.Total(MetricSearchEvaluations)
	if done == 0 {
		// No search instrumented: report completed engine jobs instead.
		unit = "jobs"
		done = r.reg.Total(MetricEngineMemoHits) + r.reg.Total(MetricEngineExecuted)
	}
	s := fmt.Sprintf("progress: %.0f", done)
	if total := r.total.Load(); total > 0 {
		s = fmt.Sprintf("progress: %.0f/%d", done, total)
	}
	s += " " + unit

	if submitted := r.reg.Total(MetricEngineSubmitted); submitted > 0 {
		hits := r.reg.Total(MetricEngineMemoHits)
		s += fmt.Sprintf(", cache-hit %.0f%%", 100*hits/submitted)
	}

	elapsed := time.Since(r.start)
	s += ", elapsed " + shortDuration(elapsed)
	if total := r.total.Load(); total > 0 && done > 0 && done < float64(total) {
		eta := time.Duration(float64(elapsed) / done * (float64(total) - done))
		s += ", ETA " + shortDuration(eta)
	}
	return s
}

// shortDuration renders a duration at second granularity ("1m32s").
func shortDuration(d time.Duration) string {
	return d.Round(time.Second).String()
}
