package engine

import (
	"strconv"

	"hdsmt/internal/telemetry"
)

// instruments is the engine's telemetry: one series per Stats counter plus
// the latency histogram and per-worker busy time. Always non-nil — with no
// registry configured they land in a private registry, still backing
// Stats() — so the hot path never branches on "is telemetry on".
type instruments struct {
	submitted   *telemetry.Counter
	memoHits    *telemetry.Counter
	coalesced   *telemetry.Counter
	executed    *telemetry.Counter
	errors      *telemetry.Counter
	restored    *telemetry.Counter
	panics      *telemetry.Counter
	journalTorn *telemetry.Counter
	workerBusy  *telemetry.CounterVec
	jobSeconds  *telemetry.Histogram
}

func newInstruments(reg *telemetry.Registry) *instruments {
	return &instruments{
		submitted:   reg.Counter(telemetry.MetricEngineSubmitted, "Submit calls"),
		memoHits:    reg.Counter(telemetry.MetricEngineMemoHits, "submissions served from the in-memory memo store"),
		coalesced:   reg.Counter(telemetry.MetricEngineCoalesced, "submissions attached to an identical in-flight job"),
		executed:    reg.Counter(telemetry.MetricEngineExecuted, "simulations actually run"),
		errors:      reg.Counter(telemetry.MetricEngineErrors, "failed executions"),
		restored:    reg.Counter(telemetry.MetricEngineRestored, "journal entries preloaded at construction"),
		panics:      reg.Counter(telemetry.MetricEnginePanics, "runner panics recovered by workers (each fails one job, not the process)"),
		journalTorn: reg.Counter(telemetry.MetricEngineJournalTorn, "truncated or corrupt journal lines skipped at load"),
		workerBusy:  reg.CounterVec(telemetry.MetricEngineWorkerBusy, "time each worker spent executing tasks", "worker"),
		jobSeconds:  reg.Histogram(telemetry.MetricEngineJobSeconds, "job latency from enqueue to completion (queue wait + execution)", nil),
	}
}

// registerGauges exposes the engine's live state as sampled gauges: the
// shared-queue depth, each shard's queued-or-running job count, and the
// in-memory cache hit ratio. Sampled at scrape time, so they cost nothing
// between scrapes; re-registration replaces the sampler, so the gauges
// track the most recently built engine when several share one registry.
func (e *Engine) registerGauges(reg *telemetry.Registry) {
	reg.GaugeFunc(telemetry.MetricEngineQueueDepth,
		"tasks waiting in the shared execution queue",
		func() float64 { return float64(len(e.queue)) })
	reg.GaugeFunc(telemetry.MetricEngineCacheRatio,
		"in-memory memo hits over submissions since construction",
		func() float64 {
			sub := e.tel.submitted.Value()
			if sub == 0 {
				return 0
			}
			return e.tel.memoHits.Value() / sub
		})
	for i, sh := range e.shards {
		sh := sh
		reg.GaugeFuncWith(telemetry.MetricEngineShardDepth,
			"jobs owned by the shard (queued or running)", "shard", strconv.Itoa(i),
			func() float64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return float64(len(sh.inflight))
			})
	}
}
