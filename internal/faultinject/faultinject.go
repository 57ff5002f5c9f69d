// Package faultinject is a seed-deterministic fault-injection registry:
// named injection points scattered through I/O and execution paths
// (the two journals, the simulate call) that can be armed to return
// errors, add latency, or panic with configured probabilities.
//
// Disarmed — the default, and the only state production code ever runs
// in — a Hit is one atomic load and a nil return, so the instrumented
// paths cost nothing. Armed, each point draws from its own rand source
// seeded by (seed, point name), so a chaos run with a fixed seed replays
// the identical fault schedule regardless of goroutine interleaving at
// *other* points. Probabilistic faults never enter result artifacts:
// injection only ever makes paths fail or stall, and the repository's
// determinism invariant (fixed seed -> identical BENCH bytes) is asserted
// with injection disabled.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical injection-point names. Wired call sites use these constants;
// chaos tests and the hdsmtd -fault flag refer to them by string.
const (
	PointJournalAppend    = "engine.journal.append"
	PointSimulate         = "engine.simulate"
	PointJobJournalAppend = "server.jobjournal.append"
)

// Points lists every wired injection point; ParseSpec accepts no other.
var Points = []string{PointJournalAppend, PointSimulate, PointJobJournalAppend}

// ErrInjected is the error every armed error-fault returns, so callers
// (and tests) can tell injected failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault configures one injection point. Probabilities are independent:
// on each Hit the point first maybe sleeps, then maybe panics, then
// maybe returns ErrInjected.
type Fault struct {
	// Err is the probability (0..1) of returning ErrInjected.
	Err float64
	// Panic is the probability of panicking ("injected panic <point>").
	Panic float64
	// Delay is the latency added with probability DelayProb.
	Delay time.Duration
	// DelayProb defaults to 1 when Delay is set and DelayProb is 0.
	DelayProb float64
}

// Counts reports how often a point's faults actually triggered.
type Counts struct {
	Hits   uint64 // Hit calls while armed
	Errs   uint64
	Panics uint64
	Delays uint64
}

type point struct {
	mu     sync.Mutex
	fault  Fault
	rng    *rand.Rand
	counts Counts
}

var (
	armed  atomic.Bool
	mu     sync.Mutex
	points map[string]*point
)

// Enable arms the registry: each named point gets its fault config and a
// rand source seeded by seed and the point's name. Points not in faults
// stay transparent. Enable replaces any previous configuration.
func Enable(seed int64, faults map[string]Fault) {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string]*point, len(faults))
	for name, f := range faults {
		if f.Delay > 0 && f.DelayProb == 0 {
			f.DelayProb = 1
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		points[name] = &point{fault: f, rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64())))}
	}
	armed.Store(true)
}

// Disable disarms every point; Hit returns to its zero-cost path.
func Disable() {
	armed.Store(false)
	mu.Lock()
	points = nil
	mu.Unlock()
}

// Enabled reports whether the registry is armed.
func Enabled() bool { return armed.Load() }

// Hit evaluates the named injection point: nil and free when the
// registry is disarmed or the point unconfigured; otherwise it may
// sleep, panic, or return ErrInjected per the point's Fault.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.counts.Hits++
	var sleep time.Duration
	doPanic := false
	var err error
	if p.fault.DelayProb > 0 && p.rng.Float64() < p.fault.DelayProb {
		p.counts.Delays++
		sleep = p.fault.Delay
	}
	if p.fault.Panic > 0 && p.rng.Float64() < p.fault.Panic {
		p.counts.Panics++
		doPanic = true
	} else if p.fault.Err > 0 && p.rng.Float64() < p.fault.Err {
		p.counts.Errs++
		err = fmt.Errorf("%w at %s", ErrInjected, name)
	}
	p.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if doPanic {
		panic(fmt.Sprintf("faultinject: injected panic at %s", name))
	}
	return err
}

// CountsFor returns a point's trigger counts (zero when unconfigured or
// disarmed).
func CountsFor(name string) Counts {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return Counts{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

// ParseSpec parses the hdsmtd -fault flag syntax: a comma-separated
// list of point configurations,
//
//	point:attr=value+attr=value,point2:...
//
// with attributes err=<prob>, panic=<prob> and delay=<duration>[@prob],
// e.g.
//
//	engine.journal.append:err=0.3+delay=5ms@0.5,engine.simulate:panic=0.01
//
// A point not in Points is an error: armed under a misspelt name, a fault
// would never fire.
func ParseSpec(spec string) (map[string]Fault, error) {
	out := map[string]Fault{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, attrs, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("faultinject: %q: want point:attr=value[+...]", part)
		}
		if !slices.Contains(Points, name) {
			return nil, fmt.Errorf("faultinject: %q: unknown point %q (want one of %s)", part, name, strings.Join(Points, ", "))
		}
		var f Fault
		for _, attr := range strings.Split(attrs, "+") {
			key, val, ok := strings.Cut(attr, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: %q: attribute %q is not key=value", part, attr)
			}
			switch key {
			case "err", "panic":
				prob, err := strconv.ParseFloat(val, 64)
				if err != nil || prob < 0 || prob > 1 {
					return nil, fmt.Errorf("faultinject: %q: %s probability %q must be in [0,1]", part, key, val)
				}
				if key == "err" {
					f.Err = prob
				} else {
					f.Panic = prob
				}
			case "delay":
				dur, prob := val, 1.0
				if d, pr, ok := strings.Cut(val, "@"); ok {
					dur = d
					p, err := strconv.ParseFloat(pr, 64)
					if err != nil || p < 0 || p > 1 {
						return nil, fmt.Errorf("faultinject: %q: delay probability %q must be in [0,1]", part, pr)
					}
					prob = p
				}
				d, err := time.ParseDuration(dur)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultinject: %q: bad delay %q", part, dur)
				}
				f.Delay, f.DelayProb = d, prob
			default:
				return nil, fmt.Errorf("faultinject: %q: unknown attribute %q (want err, panic or delay)", part, key)
			}
		}
		out[name] = f
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec")
	}
	return out, nil
}

// Summary renders the armed configuration one point per line, sorted, for
// startup logging.
func Summary() string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(points))
	for name := range points {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := points[name].fault
		fmt.Fprintf(&b, "%s: err=%g panic=%g delay=%s@%g\n", name, f.Err, f.Panic, f.Delay, f.DelayProb)
	}
	return b.String()
}
