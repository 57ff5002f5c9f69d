// Package tshist keeps a short in-memory history of the telemetry
// registry so the serving daemon can answer rate and latency questions
// that a single /metrics scrape cannot: throughput over the last minute,
// p95 latency per job kind over the last five, and — built on those —
// multi-window SLO burn rates.
//
// A Sampler snapshots the registry on a fixed interval into a bounded
// ring of points. Windowed statistics are deltas between the newest
// point and the newest point at least the window's span older, so they
// need no per-observation storage: counters difference, histograms
// difference bucket-by-bucket (the bounds are fixed at registration,
// which is what makes the subtraction valid). Quantiles come from the
// delta histogram by linear interpolation within the bucket containing
// the rank — the same estimate Prometheus's histogram_quantile makes.
//
// Everything here is wall-clock by construction and therefore lives only
// behind /metrics, /metrics/history and /readyz — never in BENCH
// artifacts.
package tshist

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"hdsmt/internal/telemetry"
)

const (
	// DefaultInterval is the sampling period when the owner does not
	// choose: fine enough that a 1m window holds ~12 points.
	DefaultInterval = 5 * time.Second
	// DefaultCapacity bounds the ring: 512 points at 5s is ~42 minutes,
	// comfortably covering the longest (30m) window.
	DefaultCapacity = 512

	// SchemaVersion names the /metrics/history JSON layout so scripts can
	// refuse payloads they do not understand.
	SchemaVersion = "hdsmt-metrics-history/v1"
)

// Windows are the fixed lookback horizons history and SLO burn rates are
// computed over, shortest first. The names are the JSON keys.
var Windows = []struct {
	Name string
	Span time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"30m", 30 * time.Minute},
}

// Config sizes a Sampler.
type Config struct {
	// Interval between snapshots (<= 0 means DefaultInterval).
	Interval time.Duration
	// Capacity of the snapshot ring (<= 0 means DefaultCapacity).
	Capacity int
	// SLOs to evaluate each sample.
	SLOs []SLO
}

// point is one registry snapshot, flattened for delta arithmetic.
type point struct {
	at     time.Time
	vals   map[string]float64 // counters, keyed name+"\x00"+labelValue
	hists  map[string]telemetry.HistogramSnapshot
	gauges map[string]float64 // unlabeled plain gauges, keyed by name
}

func seriesKey(name, labelValue string) string { return name + "\x00" + labelValue }

// Sampler snapshots a registry into a bounded ring and serves windowed
// history and SLO status from it. Safe for concurrent use.
type Sampler struct {
	reg      *telemetry.Registry
	interval time.Duration
	slos     []SLO
	burn     *telemetry.GaugeVec
	breach   *telemetry.GaugeVec

	mu   sync.Mutex
	ring telemetry.Ring[point]
}

// New builds a sampler over reg. The SLO burn-rate and breach gauges are
// registered immediately (value 0) so dashboards see the series before
// the first sample.
func New(reg *telemetry.Registry, cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	s := &Sampler{
		reg:      reg,
		interval: cfg.Interval,
		slos:     append([]SLO(nil), cfg.SLOs...),
		ring:     telemetry.NewRing[point](cfg.Capacity),
	}
	if reg != nil {
		s.burn = reg.GaugeVec(telemetry.MetricSLOBurnRate,
			"SLO error-budget burn rate per evaluation window (1 = burning exactly the budget)", "slo")
		s.breach = reg.GaugeVec(telemetry.MetricSLOBreach,
			"SLO alert level: 0 ok or no data, 1 warn, 2 page", "slo")
		for _, slo := range s.slos {
			for _, w := range Windows {
				s.burn.With(slo.Name + ":" + w.Name).Set(0)
			}
			s.breach.With(slo.Name).Set(0)
		}
	}
	return s
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Sample takes one snapshot now, appends it to the ring, and republishes
// the SLO gauges. The registry snapshot runs outside the sampler lock —
// gauge functions may themselves take locks.
func (s *Sampler) Sample() {
	s.push(capture(s.reg))
}

// push appends one point and republishes the SLO gauges; tests feed
// synthetic points through it to exercise window arithmetic with
// controlled clocks.
func (s *Sampler) push(p point) {
	s.mu.Lock()
	s.ring.Push(p)
	h := s.historyLocked()
	s.mu.Unlock()
	s.publish(h)
}

// Run samples on the configured interval until ctx is done. The first
// sample is immediate so history exists as soon as the daemon is up.
func (s *Sampler) Run(ctx context.Context) {
	s.Sample()
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// capture flattens one registry snapshot.
func capture(reg *telemetry.Registry) point {
	p := point{
		at:     time.Now(),
		vals:   map[string]float64{},
		hists:  map[string]telemetry.HistogramSnapshot{},
		gauges: map[string]float64{},
	}
	if reg == nil {
		return p
	}
	for _, smp := range reg.Snapshot() {
		switch {
		case smp.Hist != nil:
			p.hists[seriesKey(smp.Name, smp.LabelValue)] = *smp.Hist
		case smp.Type == "counter":
			p.vals[seriesKey(smp.Name, smp.LabelValue)] = smp.Value
		case smp.Type == "gauge" && smp.Label == "" && smp.Pairs == nil:
			p.gauges[smp.Name] = smp.Value
		}
	}
	return p
}

// History is the /metrics/history payload: current gauges, windowed
// rates and quantiles per job kind, and SLO status.
type History struct {
	Schema          string                 `json:"schema"`
	IntervalSeconds float64                `json:"interval_seconds"`
	Samples         int                    `json:"samples"`
	Gauges          map[string]float64     `json:"gauges"`
	Windows         map[string]WindowStats `json:"windows"`
	SLOs            []SLOStatus            `json:"slos"`
}

// WindowStats are the delta statistics of one lookback window. Seconds
// is the span actually covered — shorter than the nominal window while
// the ring is still filling.
type WindowStats struct {
	Seconds      float64              `json:"seconds"`
	Requests     float64              `json:"requests"`
	ServerErrors float64              `json:"server_errors"`
	Availability float64              `json:"availability"` // non-5xx ratio; 1 with no traffic
	Kinds        map[string]KindStats `json:"kinds"`
}

// KindStats are one job kind's throughput and latency quantiles over a
// window, from the hdsmt_server_job_seconds{kind} histogram delta.
type KindStats struct {
	Count uint64  `json:"count"`
	Rate  float64 `json:"rate"` // jobs per second
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// History computes the current windowed view. Always non-nil maps, so
// the JSON shape is stable even before the first sample.
func (s *Sampler) History() History {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.historyLocked()
}

func (s *Sampler) historyLocked() History {
	h := History{
		Schema:          SchemaVersion,
		IntervalSeconds: s.interval.Seconds(),
		Samples:         s.ring.Len(),
		Gauges:          map[string]float64{},
		Windows:         map[string]WindowStats{},
		SLOs:            []SLOStatus{},
	}
	if s.ring.Len() == 0 {
		for _, w := range Windows {
			h.Windows[w.Name] = WindowStats{Kinds: map[string]KindStats{}}
		}
		for _, slo := range s.slos {
			h.SLOs = append(h.SLOs, noDataStatus(slo))
		}
		return h
	}
	latest := s.ring.At(s.ring.Len() - 1)
	for name, v := range latest.gauges {
		h.Gauges[name] = v
	}
	wins := map[string]WindowStats{}
	for _, w := range Windows {
		base := s.baseline(latest.at, w.Span)
		wins[w.Name] = windowStats(latest, base)
	}
	h.Windows = wins
	for _, slo := range s.slos {
		h.SLOs = append(h.SLOs, evaluate(slo, latest, func(span time.Duration) point {
			return s.baseline(latest.at, span)
		}))
	}
	return h
}

// baseline returns the newest retained point at least span older than
// now — or the oldest point if the ring is younger than the window, so a
// freshly started daemon reports over whatever span it has.
func (s *Sampler) baseline(now time.Time, span time.Duration) point {
	best := s.ring.At(0)
	for i := s.ring.Len() - 1; i >= 1; i-- {
		p := s.ring.At(i)
		if now.Sub(p.at) >= span {
			return p
		}
	}
	return best
}

func windowStats(latest, base point) WindowStats {
	ws := WindowStats{
		Seconds:      latest.at.Sub(base.at).Seconds(),
		Availability: 1,
		Kinds:        map[string]KindStats{},
	}
	reqs, errs := responseDeltas(latest, base)
	ws.Requests, ws.ServerErrors = reqs, errs
	if reqs > 0 {
		ws.Availability = 1 - errs/reqs
	}
	prefix := seriesKey(telemetry.MetricServerJobSeconds, "")
	kinds := make([]string, 0, 4)
	for key := range latest.hists {
		if strings.HasPrefix(key, prefix) {
			kinds = append(kinds, key[len(prefix):])
		}
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		d := histDelta(latest, base, seriesKey(telemetry.MetricServerJobSeconds, kind))
		ks := KindStats{Count: d.total()}
		if ws.Seconds > 0 {
			ks.Rate = float64(ks.Count) / ws.Seconds
		}
		ks.P50 = d.quantile(0.50)
		ks.P95 = d.quantile(0.95)
		ks.P99 = d.quantile(0.99)
		ws.Kinds[kind] = ks
	}
	return ws
}

// responseDeltas returns (total, 5xx) HTTP responses between base and
// latest, summed over status classes.
func responseDeltas(latest, base point) (reqs, errs float64) {
	prefix := seriesKey(telemetry.MetricServerHTTPResponses, "")
	for key, v := range latest.vals {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		d := v - base.vals[key] // missing in base -> 0, counters only grow
		if d < 0 {
			d = 0
		}
		reqs += d
		if key[len(prefix):] == "5xx" {
			errs += d
		}
	}
	return reqs, errs
}

// deltaHist is the difference of two cumulative histogram snapshots of
// the same bucket layout.
type deltaHist struct {
	bounds []float64
	cum    []uint64 // cumulative counts, len(bounds)+1 (+Inf last)
}

func histDelta(latest, base point, key string) deltaHist {
	cur, ok := latest.hists[key]
	if !ok {
		return deltaHist{}
	}
	d := deltaHist{bounds: cur.Bounds, cum: make([]uint64, len(cur.Buckets))}
	prev, hasPrev := base.hists[key]
	for i, c := range cur.Buckets {
		var p uint64
		if hasPrev && i < len(prev.Buckets) {
			p = prev.Buckets[i]
		}
		if c > p {
			d.cum[i] = c - p
		}
	}
	return d
}

func (d deltaHist) total() uint64 {
	if len(d.cum) == 0 {
		return 0
	}
	return d.cum[len(d.cum)-1]
}

// quantile estimates the q-th quantile (0..1) of the delta by linear
// interpolation within the bucket containing the rank — the same
// estimate histogram_quantile makes. Observations in the +Inf bucket
// clamp to the highest finite bound. Returns 0 when the window is empty.
func (d deltaHist) quantile(q float64) float64 {
	total := d.total()
	if total == 0 || len(d.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	for i, cum := range d.cum {
		if float64(cum) < rank {
			continue
		}
		if i == len(d.bounds) { // +Inf bucket
			return d.bounds[len(d.bounds)-1]
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = d.bounds[i-1]
			below = d.cum[i-1]
		}
		inBucket := cum - below
		if inBucket == 0 {
			return d.bounds[i]
		}
		return lower + (d.bounds[i]-lower)*(rank-float64(below))/float64(inBucket)
	}
	return d.bounds[len(d.bounds)-1]
}

// countAtOrBelow returns how many delta observations fell at or below
// threshold, using the first bucket bound >= threshold (the histogram
// cannot resolve finer than its buckets; the result is the conservative
// bucketed count SLO evaluation documents).
func (d deltaHist) countAtOrBelow(threshold float64) uint64 {
	if len(d.cum) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(d.bounds, threshold)
	if i >= len(d.cum) {
		i = len(d.cum) - 1
	}
	return d.cum[i]
}
