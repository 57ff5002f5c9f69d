package tshist

import (
	"math"
	"testing"
	"time"

	"hdsmt/internal/telemetry"
)

// syntheticPoint builds a point with the given HTTP response counters
// and one sweep-kind latency histogram whose cumulative buckets are
// given (+Inf last, aligned with bounds+1).
func syntheticPoint(at time.Time, responses map[string]float64, bounds []float64, cum []uint64) point {
	p := point{at: at, vals: map[string]float64{}, hists: map[string]telemetry.HistogramSnapshot{}, gauges: map[string]float64{}}
	for class, v := range responses {
		p.vals[seriesKey(telemetry.MetricServerHTTPResponses, class)] = v
	}
	if bounds != nil {
		var count uint64
		if len(cum) > 0 {
			count = cum[len(cum)-1]
		}
		p.hists[seriesKey(telemetry.MetricServerJobSeconds, "sweep")] = telemetry.HistogramSnapshot{
			Bounds: bounds, Buckets: cum, Count: count,
		}
	}
	return p
}

func TestBaselinePicksNewestOldEnoughPoint(t *testing.T) {
	s := New(nil, Config{Interval: 10 * time.Second, Capacity: 16})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ { // points at t0, t0+10s, ..., t0+90s
		s.push(point{at: t0.Add(time.Duration(i) * 10 * time.Second)})
	}
	latest := s.ring.At(s.ring.Len() - 1) // t0+90s
	base := s.baseline(latest.at, time.Minute)
	if got := latest.at.Sub(base.at); got != time.Minute {
		t.Fatalf("1m baseline span = %v, want exactly 60s (the newest point >= 60s old)", got)
	}
	// A window longer than the ring's history falls back to the oldest point.
	base = s.baseline(latest.at, 30*time.Minute)
	if got := latest.at.Sub(base.at); got != 90*time.Second {
		t.Fatalf("30m baseline span = %v, want full retained span 90s", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	// 100 observations: 50 in (0, 0.1], 40 in (0.1, 0.2], 10 in +Inf.
	d := deltaHist{bounds: []float64{0.1, 0.2}, cum: []uint64{50, 90, 100}}
	if got := d.quantile(0.5); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.1 (rank 50 lands exactly on the first bound)", got)
	}
	// rank 95 is 45/40 of the way through the second bucket: 0.1 + 0.1*45/40... rank 95 > 90,
	// so it falls in the +Inf bucket and clamps to the highest finite bound.
	if got := d.quantile(0.95); got != 0.2 {
		t.Fatalf("p95 = %v, want clamp to 0.2 (+Inf bucket)", got)
	}
	// rank 80 in second bucket: 0.1 + 0.1*(80-50)/40 = 0.175.
	if got := d.quantile(0.8); math.Abs(got-0.175) > 1e-9 {
		t.Fatalf("p80 = %v, want 0.175 (linear interpolation)", got)
	}
	if got := (deltaHist{}).quantile(0.95); got != 0 {
		t.Fatalf("empty delta quantile = %v, want 0", got)
	}
}

func TestWindowStatsRatesAndKinds(t *testing.T) {
	s := New(nil, Config{Interval: 10 * time.Second, Capacity: 16})
	bounds := []float64{0.1, 0.5}
	t0 := time.Unix(2000, 0)
	s.push(syntheticPoint(t0, map[string]float64{"2xx": 100}, bounds, []uint64{10, 10, 10}))
	s.push(syntheticPoint(t0.Add(time.Minute), map[string]float64{"2xx": 160}, bounds, []uint64{40, 40, 40}))
	h := s.History()
	w := h.Windows["1m"]
	if w.Seconds != 60 {
		t.Fatalf("window covered %vs, want 60", w.Seconds)
	}
	if w.Requests != 60 || w.Availability != 1 {
		t.Fatalf("requests=%v availability=%v, want 60 and 1", w.Requests, w.Availability)
	}
	ks, ok := w.Kinds["sweep"]
	if !ok {
		t.Fatalf("window has no sweep kind: %+v", w.Kinds)
	}
	if ks.Count != 30 || math.Abs(ks.Rate-0.5) > 1e-9 {
		t.Fatalf("sweep count=%d rate=%v, want 30 jobs at 0.5/s", ks.Count, ks.Rate)
	}
}

func TestAvailabilitySLOPagesUnderErrorBurst(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(reg, Config{Interval: 10 * time.Second, Capacity: 64, SLOs: []SLO{AvailabilitySLO(0.999)}})
	t0 := time.Unix(3000, 0)
	// 10 minutes of clean traffic, then a burst where 10% of responses 5xx:
	// bad fraction 0.1 / budget 0.001 = burn 100 in every recent window.
	for i := 0; i <= 60; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		resp := map[string]float64{"2xx": float64(100 * i)}
		if i > 30 {
			resp["2xx"] = 100*30 + 90*float64(i-30)
			resp["5xx"] = 10 * float64(i-30)
		}
		s.push(syntheticPoint(at, resp, nil, nil))
	}
	h := s.History()
	if len(h.SLOs) != 1 {
		t.Fatalf("got %d SLO statuses, want 1", len(h.SLOs))
	}
	st := h.SLOs[0]
	if st.Status != "page" || !st.Breach {
		t.Fatalf("status=%q breach=%v, want page/true; windows=%+v", st.Status, st.Breach, st.Windows)
	}
	if b := st.Windows["1m"].Burn; math.Abs(b-100) > 1 {
		t.Fatalf("1m burn = %v, want ~100", b)
	}
	// The gauges must have flipped too.
	var burn1m, breach float64
	for _, smp := range reg.Snapshot() {
		switch {
		case smp.Name == telemetry.MetricSLOBurnRate && smp.LabelValue == "availability:1m":
			burn1m = smp.Value
		case smp.Name == telemetry.MetricSLOBreach && smp.LabelValue == "availability":
			breach = smp.Value
		}
	}
	if math.Abs(burn1m-100) > 1 || breach != 2 {
		t.Fatalf("gauges burn1m=%v breach=%v, want ~100 and 2 (page)", burn1m, breach)
	}
}

func TestLatencySLOCountsSlowJobsAsBad(t *testing.T) {
	s := New(nil, Config{Interval: 10 * time.Second, Capacity: 64, SLOs: []SLO{LatencySLO("sweep", 0.1)}})
	bounds := []float64{0.1, 0.5}
	t0 := time.Unix(4000, 0)
	// Every job lands in the (0.1, 0.5] bucket: 100% bad against a 0.1s
	// target, burn = 1.0/0.05 = 20 -> page.
	for i := 0; i <= 40; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		n := uint64(10 * i)
		s.push(syntheticPoint(at, nil, bounds, []uint64{0, n, n}))
	}
	st := s.History().SLOs[0]
	if st.Status != "page" || !st.Breach {
		t.Fatalf("status=%q breach=%v, want page/true; windows=%+v", st.Status, st.Breach, st.Windows)
	}
	if bf := st.Windows["5m"].BadFraction; math.Abs(bf-1) > 1e-9 {
		t.Fatalf("5m bad fraction = %v, want 1.0", bf)
	}
}

func TestSLONoDataAndEmptyHistoryShape(t *testing.T) {
	s := New(nil, Config{SLOs: []SLO{AvailabilitySLO(0.999)}})
	h := s.History()
	if h.Schema != SchemaVersion {
		t.Fatalf("schema = %q, want %q", h.Schema, SchemaVersion)
	}
	if h.Samples != 0 || len(h.Windows) != len(Windows) {
		t.Fatalf("empty history: samples=%d windows=%d, want 0 and %d", h.Samples, len(h.Windows), len(Windows))
	}
	if st := h.SLOs[0]; st.Status != "no-data" || st.Breach {
		t.Fatalf("empty history SLO status = %q breach=%v, want no-data/false", st.Status, st.Breach)
	}
}

func TestParseLatencyTargets(t *testing.T) {
	slos, err := ParseLatencyTargets("sweep=0.25, search=1.5")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(slos) != 2 || slos[0].Kind != "search" || slos[1].Kind != "sweep" {
		t.Fatalf("got %+v, want search then sweep (sorted)", slos)
	}
	if slos[1].Threshold != 0.25 || slos[1].Objective != 0.95 {
		t.Fatalf("sweep SLO = %+v, want threshold 0.25 objective 0.95", slos[1])
	}
	if got, err := ParseLatencyTargets(""); err != nil || got != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"sweep", "sweep=", "sweep=-1", "=0.5", "sweep=abc"} {
		if _, err := ParseLatencyTargets(bad); err == nil {
			t.Fatalf("ParseLatencyTargets(%q) accepted, want error", bad)
		}
	}
}

func TestSamplerCapturesLiveRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("hdsmt_engine_queue_depth", "x").Set(7)
	hv := reg.HistogramVec(telemetry.MetricServerJobSeconds, "x", "kind", nil)
	hv.With("sweep").Observe(0.01)
	cv := reg.CounterVec(telemetry.MetricServerHTTPResponses, "x", "class")
	cv.With("2xx").Add(5)
	s := New(reg, Config{Interval: time.Second, Capacity: 8})
	s.Sample()
	h := s.History()
	if h.Samples != 1 {
		t.Fatalf("samples = %d, want 1", h.Samples)
	}
	if h.Gauges["hdsmt_engine_queue_depth"] != 7 {
		t.Fatalf("gauges = %+v, want queue depth 7", h.Gauges)
	}
	// One point means every window covers 0 seconds but the kind is visible.
	if _, ok := h.Windows["1m"].Kinds["sweep"]; !ok {
		t.Fatalf("1m window kinds = %+v, want sweep present", h.Windows["1m"].Kinds)
	}
}
