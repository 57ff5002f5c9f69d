// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator's layers through their public functions — sim, core, engine,
// search and the hdsmtd server/client pair — on one of three workloads and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics. Every run is a fresh process:
// the simulator's program cache and HEUR profiles are process-global, so
// only a fresh process pays set-up the way a user does. See README.md for
// the workloads, the metrics and their measured spread.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload served-warm --seed 3 --seconds 30 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// An untraced run spawns setupProbes fresh processes, one after another, to
// measure set-up; setup_s is their median. They run in three groups —
// before the timed phase, halfway through it and after it — so that a
// stretch of host interference shorter than the run meets only one group.
const (
	setupProbes = 9
	setupGroups = 3
)

// bench is one workload's state between set-up and the timed phase.
type bench interface {
	// timed runs the untraced measurement for the given duration and
	// records the end-to-end metrics. It calls midway once, between
	// operations, about halfway through; the time midway takes is left
	// out of every timing and out of d.
	timed(d time.Duration, midway func() error, o *outcome) error
	// traced runs the traced measurement and records the per-layer
	// metrics, tracing overhead included.
	traced(d time.Duration, o *outcome) error
	close()
}

// metricName is one metric as BENCHMARK.json declares it.
type metricName struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the end-to-end and per-layer metric lists from
// BENCHMARK.json in the current directory, the root of the checkout: an
// untraced run prints exactly the first list, a traced run exactly the
// second.
func declaredMetrics() (endToEnd, perLayer []metricName, err error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var decl struct {
		EndToEnd []metricName `json:"end_to_end"`
		PerLayer []metricName `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return decl.EndToEnd, decl.PerLayer, nil
}

type workloadDef struct {
	name  string
	setup func(seed int64, scratch string, o *outcome) (bench, error)
}

var workloads = []workloadDef{
	{"exact-basket", setupBasket},
	{"search-sampled", setupSearch},
	{"served-warm", setupServed},
}

// outcome collects one run's operation counts, metrics, failed output
// checks and the deterministic record compared across runs of one seed.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// exact holds values that must repeat bit for bit on every run of the
	// same build, workload, seed and duration (digests of simulated
	// results, exact per-layer counts).
	exact  map[string]string
	errors []string
	// timings lists each host timing on both clocks, for the report.
	timings []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, exact: map[string]string{}}
}

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{value, unit}
}

// setTiming records a host timing read on both clocks. The metric takes the
// CPU-time reading; the report prints both, so that every run keeps
// checking which clock is the steadier (README.md, "Which clock").
func (o *outcome) setTiming(name string, wall, cpu float64, unit string) {
	o.set(name, cpu, unit)
	o.timings = append(o.timings, fmt.Sprintf("%-34s wall %.6g cpu %.6g %s", name, wall, cpu, unit))
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
	return ok
}

// exactCount records a per-layer count that must repeat exactly, both as a
// metric and in the cross-run record.
func (o *outcome) exactCount(name string, value float64, unit string) {
	o.set(name, value, unit)
	o.exact[name] = strconv.FormatFloat(value, 'g', -1, 64)
}

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func main() {
	var (
		name       = flag.String("workload", "", "workload: exact-basket, search-sampled or served-warm")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds    = flag.Int("seconds", 30, "length of the timed phase")
		trace      = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		state      = flag.String("state", ".perfbench", "directory for scratch files and per-seed check records")
		setupProbe = flag.Bool("setup-probe", false, "set up the workload, print \"ready\" and exit (internal: measures set-up in a fresh process)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *state, *setupProbe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, state string, setupProbe bool) error {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	endToEnd, perLayer, err := declaredMetrics()
	if err != nil {
		return err
	}
	state, err = filepath.Abs(state)
	if err != nil {
		return err
	}
	scratch := filepath.Join(state, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	o := newOutcome()
	b, err := def.setup(seed, scratch, o)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	if setupProbe {
		fmt.Println("ready")
		b.close()
		return nil
	}

	var setups []float64
	probe := func() error {
		more, err := probeSetup(name, seed, state, setupProbes/setupGroups)
		setups = append(setups, more...)
		return err
	}
	d := time.Duration(seconds) * time.Second
	if trace == 0 {
		if err = probe(); err == nil {
			err = b.timed(d, probe, o)
		}
	} else {
		err = b.traced(d, o)
	}
	memPeak := vmHWM()
	b.close()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	if trace == 1 {
		// A layer the workload does not exercise reports 0.
		for _, m := range perLayer {
			if _, ok := o.metrics[m.Name]; !ok {
				o.set(m.Name, 0, m.Unit)
			}
		}
	}
	if trace == 0 {
		o.set("mem_peak_mb", memPeak, "MB")
		if err := probe(); err != nil {
			return err
		}
		o.set("setup_s", median(setups), "s")
		fmt.Printf("setup_s samples: %s\n", formatFloats(setups, 3))
	}
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	shown := map[string]metric{}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			return fmt.Errorf("metric %s missing or not in %s", m.Name, m.Unit)
		}
		shown[m.Name] = v
	}
	o.metrics = shown
	build, err := buildID()
	if err != nil {
		return err
	}
	recordPath := filepath.Join(state, "records", fmt.Sprintf("%s-%s-seed%d-%ds.json", build, name, seed, seconds))
	if err := compareRecord(recordPath, o); err != nil {
		return err
	}
	return report(o)
}

// probeSetup re-executes this binary n times, one after another, each as a
// fresh process that sets the workload up and exits; it returns each
// probe's time from spawn to its "ready" line.
func probeSetup(name string, seed int64, state string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-state", state, "-setup-probe")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(start).Seconds()
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return nil, fmt.Errorf("set-up probe %d failed: %v %v", i, rerr, werr)
		}
		out = append(out, elapsed)
	}
	return out, nil
}

// buildID names this binary by a digest of its bytes, so that check
// records never compare two builds of different sources.
func buildID() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}

// compareRecord checks o.exact against the record an earlier run of the
// same workload, seed and duration left at path, and merges the new keys
// into it. Simulated results and exact counts must repeat bit for bit.
func compareRecord(path string, o *outcome) error {
	prev := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	keys := make([]string, 0, len(o.exact))
	for k := range o.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	compared := 0
	for _, k := range keys {
		if old, ok := prev[k]; ok {
			compared++
			o.check(old == o.exact[k], "%s = %s, an earlier run of this seed gave %s", k, o.exact[k], old)
		} else {
			prev[k] = o.exact[k]
		}
	}
	fmt.Printf("record %s: %d exact values compared with earlier runs, %d new\n",
		filepath.Base(path), compared, len(keys)-compared)
	b, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints the metrics one per line, the failed checks, and the
// result object as the last line. A failed output check is an error.
func report(o *outcome) error {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-34s %14.6g (%d of %d)\n", "failed_share", share, o.failed, o.attempted)
	for _, t := range o.timings {
		fmt.Println("timing:", t)
	}
	for _, e := range o.errors {
		fmt.Println("CHECK FAILED:", e)
	}
	correct := len(o.errors) == 0 && o.failed == 0
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, o.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		return fmt.Errorf("%d output checks failed, %d of %d operations failed", len(o.errors), o.failed, o.attempted)
	}
	return nil
}

// vmHWM returns the process's peak resident set size in MB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// memDelta measures the allocation and GC activity of a stretch of work.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns the bytes allocated and GC cycles completed since start.
func (m *memDelta) stop() (allocBytes uint64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc, after.NumGC - m.before.NumGC
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantiles cuts xs, in the order measured, into consecutive blocks of
// size values (dropping a short last block) and returns each block's
// q-quantile. A stretch of host interference then moves only the blocks it
// covers.
func blockQuantiles(xs []float64, size int, q float64) []float64 {
	if size < 1 || len(xs) < size {
		return []float64{quantile(xs, q)}
	}
	var per []float64
	for end := size; end <= len(xs); end += size {
		per = append(per, quantile(xs[end-size:end], q))
	}
	return per
}

// blockQuantile is the median of blockQuantiles.
func blockQuantile(xs []float64, size int, q float64) float64 {
	return median(blockQuantiles(xs, size, q))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func formatFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// elapsed is a stretch of host time read on both clocks: wall time and the
// process's CPU time.
type elapsed struct{ wall, cpu time.Duration }

func (e elapsed) onWall() time.Duration { return e.wall }
func (e elapsed) onCPU() time.Duration  { return e.cpu }

// stamp is a reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// since returns the time from s to now on both clocks.
func (s stamp) since() elapsed { return elapsed{time.Since(s.wall), cpuTime() - s.cpu} }

// cpuTime returns the CPU time the process has used, all threads, user and
// system. Host timings are taken in CPU time where the work is
// single-threaded: on a shared virtual machine the hypervisor steals
// whole stretches of wall time (see README.md), and the kernel does not
// charge stolen time to the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
