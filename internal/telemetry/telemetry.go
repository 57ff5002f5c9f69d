// Package telemetry is the repository's dependency-free observability
// layer: a concurrency-safe metrics registry (counters, gauges and
// fixed-bucket histograms with deterministic snapshot ordering), a
// Prometheus text-exposition writer for the server's GET /metrics, a span
// recorder exporting Chrome trace_event JSON, and a periodic progress
// reporter the CLIs drive from the same counters.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Instruments are plain atomics updated at
//     per-job granularity (engine submissions, server jobs, search
//     evaluations) — never inside internal/core stepping, which stays
//     allocation-free. A nil *Tracer records nothing and its guard is a
//     single pointer comparison.
//   - Determinism of artifacts. Wall-clock quantities (latencies, busy
//     time, ETAs) live only in /metrics scrapes, trace files and stderr
//     progress lines — never in BENCH_*.json or search results, so the
//     byte-reproducibility invariant is untouched.
//   - No dependencies. The exposition format is the stable Prometheus
//     text format, written by hand; the trace format is the Chrome
//     trace_event JSON that about://tracing and Perfetto open directly.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric name constants shared by the instrumented layers and the
// progress reporter, so a rename cannot silently decouple them.
const (
	MetricEngineSubmitted   = "hdsmt_engine_submitted_total"
	MetricEngineMemoHits    = "hdsmt_engine_memo_hits_total"
	MetricEngineCoalesced   = "hdsmt_engine_coalesced_total"
	MetricEngineExecuted    = "hdsmt_engine_executed_total"
	MetricEngineErrors      = "hdsmt_engine_errors_total"
	MetricEngineRestored    = "hdsmt_engine_restored_total"
	MetricEnginePanics      = "hdsmt_engine_runner_panics_total"
	MetricEngineJournalTorn = "hdsmt_engine_journal_truncated_total"
	MetricEngineCacheRatio  = "hdsmt_engine_cache_hit_ratio"
	MetricEngineQueueDepth  = "hdsmt_engine_queue_depth"
	MetricEngineShardDepth  = "hdsmt_engine_shard_queue_depth"
	MetricEngineWorkerBusy  = "hdsmt_engine_worker_busy_seconds_total"
	MetricEngineJobSeconds  = "hdsmt_engine_job_seconds"

	MetricServerJobs        = "hdsmt_server_jobs_total"
	MetricServerInflight    = "hdsmt_server_jobs_inflight"
	MetricServerJobSeconds  = "hdsmt_server_job_seconds"
	MetricServerRejected    = "hdsmt_server_rejected_total"
	MetricServerPending     = "hdsmt_server_jobs_pending"
	MetricServerJobPanics   = "hdsmt_server_job_panics_total"
	MetricServerRecovered   = "hdsmt_server_jobs_recovered_total"
	MetricServerJournalTorn = "hdsmt_server_job_journal_truncated_total"

	MetricSearchEvaluations = "hdsmt_search_evaluations_total"
	MetricSearchSubmitted   = "hdsmt_search_submitted_total"
	MetricSearchCacheHits   = "hdsmt_search_cache_hits_total"
	MetricSearchBestAge     = "hdsmt_search_best_age"

	MetricBuildInfo        = "hdsmt_build_info"
	MetricServerSSEStreams = "hdsmt_server_sse_streams"
	MetricServerSSEEvents  = "hdsmt_server_sse_events_total"
	MetricServerJobEvents  = "hdsmt_server_job_events_total"

	MetricServerHTTPResponses = "hdsmt_server_http_responses_total"
	MetricTraceDropped        = "hdsmt_trace_events_dropped_total"
	MetricSLOBurnRate         = "hdsmt_slo_burn_rate"
	MetricSLOBreach           = "hdsmt_slo_breach"
)

// Counter is a monotonically increasing float64. The float representation
// lets one type carry both event counts and accumulated durations
// (seconds); contention is per-job, so the CAS loop never spins in
// practice.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v (v < 0 is a programming error and is
// ignored rather than allowed to corrupt monotonicity).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc and Dec shift the gauge by ±1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative upper
// bounds, ascending) plus an implicit +Inf bucket, and accumulates their
// sum. Buckets are fixed at registration so snapshots are deterministic
// and mergeable.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    Counter
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// HistogramSnapshot is a histogram's state at one instant: cumulative
// bucket counts aligned with Bounds (+Inf last), the observation count and
// sum.
type HistogramSnapshot struct {
	Bounds  []float64 // upper bounds, ascending, +Inf excluded
	Buckets []uint64  // cumulative counts, len(Bounds)+1
	Count   uint64
	Sum     float64
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Buckets: make([]uint64, len(h.counts))}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	s.Count = cum
	s.Sum = h.sum.Value()
	return s
}

// DefBuckets is the default latency bucket ladder (seconds): fine enough
// to separate cache hits from executed simulations, coarse enough to stay
// a dozen series.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindInfo
	kindCounterFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family is one metric name: its metadata and its series (one per label
// value; the empty label value is the unlabeled series).
type family struct {
	name, help string
	kind       kind
	labelKey   string
	bounds     []float64
	series     map[string]any // label value -> *Counter | *Gauge | *Histogram | func() float64
	// info holds the label pairs of a kindInfo family — a constant gauge
	// like build_info whose value is always 1 and whose labels are the
	// payload.
	info [][2]string
}

// Registry holds metric families by name. All methods are safe for
// concurrent use; registration is idempotent — re-registering an existing
// (name, label value) returns the existing instrument, so several engines
// or searches sharing one registry accumulate into the same series.
// Re-registering a name with a different type, label key or bucket layout
// panics: that is a wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, k kind, labelKey string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, labelKey: labelKey, bounds: bounds, series: map[string]any{}}
		r.families[name] = f
		return f
	}
	if f.kind != k || f.labelKey != labelKey || len(f.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s/%q (have %s/%q)", name, k, labelKey, f.kind, f.labelKey))
	}
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.counterWith(name, help, "", "")
}

// CounterVec registers a labeled counter family; With returns the series
// for one label value.
type CounterVec struct {
	r          *Registry
	name, help string
	label      string
}

// CounterVec registers (or finds) a counter family labeled by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.family(name, help, kindCounter, label, nil)
	return &CounterVec{r: r, name: name, help: help, label: label}
}

// With returns the counter series for one label value.
func (cv *CounterVec) With(value string) *Counter {
	return cv.r.counterWith(cv.name, cv.help, cv.label, value)
}

func (r *Registry) counterWith(name, help, label, value string) *Counter {
	f := r.family(name, help, kindCounter, label, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := f.series[value]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.series[value] = c
	return c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.gaugeWith(name, help, "", "")
}

// GaugeVec registers a labeled gauge family; With returns the series for
// one label value.
type GaugeVec struct {
	r          *Registry
	name, help string
	label      string
}

// GaugeVec registers (or finds) a gauge family labeled by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	r.family(name, help, kindGauge, label, nil)
	return &GaugeVec{r: r, name: name, help: help, label: label}
}

// With returns the gauge series for one label value.
func (gv *GaugeVec) With(value string) *Gauge {
	return gv.r.gaugeWith(gv.name, gv.help, gv.label, value)
}

func (r *Registry) gaugeWith(name, help, label, value string) *Gauge {
	f := r.family(name, help, kindGauge, label, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := f.series[value]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.series[value] = g
	return g
}

// CounterFunc registers a counter whose value is sampled at snapshot
// time — for monotone counts owned by another structure (a tracer's drop
// count) that would be wasteful to mirror write-by-write.
// Re-registration replaces the function, like GaugeFunc.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounterFunc, "", nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.series[""] = fn
}

// GaugeFunc registers a gauge whose value is sampled at snapshot time.
// Re-registration replaces the function (last writer wins), so a restarted
// component's gauges track the live instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.gaugeFuncWith(name, help, "", "", fn)
}

// GaugeFuncWith registers a labeled sampled gauge.
func (r *Registry) GaugeFuncWith(name, help, label, value string, fn func() float64) {
	r.gaugeFuncWith(name, help, label, value, fn)
}

func (r *Registry) gaugeFuncWith(name, help, label, value string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, label, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.series[value] = fn
}

// Info registers a constant informational gauge, Prometheus build_info
// style: its value is always 1 and its label pairs — rendered in the
// order given — are the payload (version, go version, ...). Registering
// the same name again replaces the pairs, so a restarted component's
// metadata tracks the live instance.
func (r *Registry) Info(name, help string, pairs [][2]string) {
	f := r.family(name, help, kindInfo, "", nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.info = append([][2]string(nil), pairs...)
}

// Histogram registers (or finds) an unlabeled fixed-bucket histogram.
// bounds must be ascending; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.histogramWith(name, help, "", "", bounds)
}

// HistogramVec registers a labeled histogram family.
type HistogramVec struct {
	r          *Registry
	name, help string
	label      string
	bounds     []float64
}

// HistogramVec registers (or finds) a histogram family labeled by label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	r.family(name, help, kindHistogram, label, bounds)
	return &HistogramVec{r: r, name: name, help: help, label: label, bounds: bounds}
}

// With returns the histogram series for one label value.
func (hv *HistogramVec) With(value string) *Histogram {
	return hv.r.histogramWith(hv.name, hv.help, hv.label, value, hv.bounds)
}

func (r *Registry) histogramWith(name, help, label, value string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s bucket bounds not ascending: %v", name, bounds))
		}
	}
	f := r.family(name, help, kindHistogram, label, bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := f.series[value]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	f.series[value] = h
	return h
}

// Sample is one series' state in a Snapshot.
type Sample struct {
	Name string
	Type string // counter|gauge|histogram
	// Label/LabelValue identify the series within the family ("" when
	// unlabeled).
	Label, LabelValue string
	// Pairs carries the label pairs of an info-style constant gauge
	// (Registry.Info); nil otherwise.
	Pairs [][2]string
	// Value carries counter/gauge samples; Hist carries histograms.
	Value float64
	Hist  *HistogramSnapshot
}

// Snapshot returns every series in deterministic order: families sorted
// by name, series sorted by label value. Sampled gauges are evaluated
// outside the registry lock, so a gauge function may itself take locks.
func (r *Registry) Snapshot() []Sample {
	type pending struct {
		sample Sample
		fn     func() float64
	}
	r.mu.Lock()
	var out []pending
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if f.kind == kindInfo {
			out = append(out, pending{sample: Sample{
				Name: f.name, Type: f.kind.String(),
				Pairs: f.info, Value: 1,
			}})
			continue
		}
		values := make([]string, 0, len(f.series))
		for v := range f.series {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			s := Sample{Name: f.name, Type: f.kind.String(), Label: f.labelKey, LabelValue: v}
			switch inst := f.series[v].(type) {
			case *Counter:
				s.Value = inst.Value()
			case *Gauge:
				s.Value = inst.Value()
			case *Histogram:
				snap := inst.snapshot()
				s.Hist = &snap
			case func() float64:
				out = append(out, pending{sample: s, fn: inst})
				continue
			}
			out = append(out, pending{sample: s})
		}
	}
	r.mu.Unlock()

	samples := make([]Sample, len(out))
	for i, p := range out {
		if p.fn != nil {
			p.sample.Value = p.fn()
		}
		samples[i] = p.sample
	}
	return samples
}

// Total sums a metric's value across all of its series (0 when the metric
// is not registered). Histograms contribute their observation counts. The
// progress reporter reads counters through this.
func (r *Registry) Total(name string) float64 {
	var total float64
	for _, s := range r.Snapshot() {
		if s.Name != name {
			continue
		}
		if s.Hist != nil {
			total += float64(s.Hist.Count)
		} else {
			total += s.Value
		}
	}
	return total
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Snapshot()
	var b strings.Builder
	lastName := ""
	for _, s := range samples {
		if s.Name != lastName {
			// HELP text is stored per family; recover it from the registry.
			r.mu.Lock()
			help := r.families[s.Name].help
			r.mu.Unlock()
			fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, escapeHelp(help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Type)
			lastName = s.Name
		}
		switch {
		case s.Hist != nil:
			for i, bound := range s.Hist.Bounds {
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n", s.Name,
					labelPairs(s.Label, s.LabelValue, "le", formatFloat(bound)), s.Hist.Buckets[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%s} %d\n", s.Name,
				labelPairs(s.Label, s.LabelValue, "le", "+Inf"), s.Hist.Buckets[len(s.Hist.Buckets)-1])
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, labelBlock(s.Label, s.LabelValue), formatFloat(s.Hist.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, labelBlock(s.Label, s.LabelValue), s.Hist.Count)
		case s.Pairs != nil:
			pairs := make([]string, len(s.Pairs))
			for i, p := range s.Pairs {
				pairs[i] = p[0] + `="` + escapeLabel(p[1]) + `"`
			}
			fmt.Fprintf(&b, "%s{%s} %s\n", s.Name, strings.Join(pairs, ","), formatFloat(s.Value))
		default:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, labelBlock(s.Label, s.LabelValue), formatFloat(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelBlock renders {label="value"} or "" for unlabeled series.
func labelBlock(label, value string) string {
	if label == "" {
		return ""
	}
	return "{" + label + `="` + escapeLabel(value) + `"}`
}

// labelPairs renders the inside of a label block with an extra pair (the
// histogram's le), keeping the family label first.
func labelPairs(label, value, extraKey, extraValue string) string {
	if label == "" {
		return extraKey + `="` + escapeLabel(extraValue) + `"`
	}
	return label + `="` + escapeLabel(value) + `",` + extraKey + `="` + escapeLabel(extraValue) + `"`
}
