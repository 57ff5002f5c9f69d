package main

import (
	"fmt"
	"os"
	"time"

	"hdsmt/internal/engine"
	"hdsmt/internal/telemetry"
)

// obs is the process-wide observability state: one registry feeding the
// periodic stderr progress line, and an optional Chrome tracer behind
// -tracepath. Every runner the command builds shares them (through
// obsEngineOptions), so the progress line counts jobs across all sweeps
// and the trace covers every engine job in the run. Wall-clock output
// stays on stderr and in the trace file — the BENCH_PR*.json artifacts
// remain byte-reproducible.
var obs struct {
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	rep       *telemetry.Reporter
	tracePath string
	quiet     bool
}

// obsInit wires the run's observability from the -tracepath and -quiet
// flags; call once per command line, right after flag parsing.
func obsInit(tracePath string, quiet bool) {
	obs.reg = telemetry.NewRegistry()
	obs.rep = nil
	obs.tracer = nil
	obs.tracePath = tracePath
	obs.quiet = quiet
	if tracePath != "" {
		obs.tracer = telemetry.NewTracer()
	}
}

// obsEngineOptions is the one way this command builds engine options, so
// no runner can be created without joining the shared registry and trace.
// The progress reporter starts with the first runner — modes that never
// simulate (-list, -area) stay silent.
func obsEngineOptions(workers int) engine.Options {
	if obs.rep == nil && !obs.quiet {
		obs.rep = telemetry.StartReporter(os.Stderr, obs.reg, 5*time.Second)
	}
	return engine.Options{Workers: workers, Telemetry: obs.reg, Tracer: obs.tracer}
}

// obsClose stops the progress reporter (printing its final line) and
// flushes the trace.
func obsClose() error {
	obs.rep.Stop()
	if obs.tracePath == "" {
		return nil
	}
	if err := obs.tracer.WriteFile(obs.tracePath); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace written to %s (%d events; open in chrome://tracing)\n",
		obs.tracePath, obs.tracer.Len())
	return nil
}
