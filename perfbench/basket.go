package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/mapping"
	"hdsmt/internal/perf"
	"hdsmt/internal/sim"
	"hdsmt/internal/workload"
)

// exact-basket: the perf basket configuration under the HEUR mapping, run
// exactly with sequential sim.Run calls in one goroutine. One repetition
// simulates every two-thread row of Table 2 (three ILP, three MEM, three
// MIX) in an order drawn from the seed, so every seed does the same work:
// rows differ up to 1.7x in host speed, and a seed that drew one row per
// class would move the metrics by the draw, not by the code.

type basketCell struct {
	w workload.Workload
	m mapping.Mapping
}

type basket struct {
	cfg   config.Microarch
	opt   sim.Options
	cells []basketCell
	area  float64
	width int
	// first holds each cell's Results from the first repetition; every
	// later run of the cell must reproduce them.
	first []core.Results
}

// basketPrefix is the budget of the post-run check that the optimized
// stepping path matches the reference path on a prefix of every cell.
var basketPrefix = sim.Options{Budget: 1_000, Warmup: 500}

func setupBasket(seed int64, _ string, o *outcome) (bench, error) {
	b := &basket{
		cfg: config.MustParse(perf.BasketConfig),
		opt: sim.Options{Budget: perf.BasketBudget, Warmup: perf.BasketWarmup},
	}
	var rows []workload.Workload
	for _, t := range workload.Types() {
		rows = append(rows, workload.Select(2, t)...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	maps, err := warmPrograms(rows, o)
	if err != nil {
		return nil, err
	}
	for i, w := range rows {
		b.cells = append(b.cells, basketCell{w, maps[i]})
	}
	b.area = basketArea()
	for _, m := range b.cfg.Pipelines {
		b.width += m.Width
	}
	return b, nil
}

// warmPrograms does the process-global first-use work for the workloads —
// building their programs (sim.Specs) and HEUR profiles
// (sim.HeuristicMapping on the basket configuration) — timing each, and
// returns the HEUR mappings.
func warmPrograms(wls []workload.Workload, o *outcome) ([]mapping.Mapping, error) {
	cfg := config.MustParse(perf.BasketConfig)
	var build, profile time.Duration
	var maps []mapping.Mapping
	for _, w := range wls {
		t0 := time.Now()
		if _, err := sim.Specs(w); err != nil {
			return nil, err
		}
		t1 := time.Now()
		m, err := sim.HeuristicMapping(cfg, w)
		if err != nil {
			return nil, err
		}
		build += t1.Sub(t0)
		profile += time.Since(t1)
		maps = append(maps, m)
	}
	o.set("trace.build_ms", ms(build), "ms")
	o.set("bench.profile_ms", ms(profile), "ms")
	return maps, nil
}

func (b *basket) close() {}

// basketArea is the basket configuration's area in mm².
func basketArea() float64 {
	a, err := area.Total(config.MustParse(perf.BasketConfig))
	if err != nil {
		panic(err)
	}
	return a
}

// runCell simulates cell i untraced and checks it against the first
// repetition's Results.
func (b *basket) runCell(i int, o *outcome) (core.Results, error) {
	o.attempted++
	c := b.cells[i]
	r, err := sim.Run(b.cfg, c.w, c.m, b.opt)
	if err != nil {
		o.failed++
		return r, err
	}
	if len(b.first) < len(b.cells) {
		b.first = append(b.first, r)
		o.exact["cell."+c.w.Name] = digest(r)
	} else if !reflect.DeepEqual(r, b.first[i]) {
		o.failed++
		o.check(false, "%s: a repeated simulation gave different Results", c.w.Name)
	}
	return r, nil
}

// rep runs one repetition untraced and returns its time on both clocks
// and the simulated instructions it committed; cells gains each cell's
// time.
func (b *basket) rep(o *outcome, cells *[]elapsed) (elapsed, uint64, error) {
	start := now()
	var instr uint64
	for i := range b.cells {
		t0 := now()
		r, err := b.runCell(i, o)
		if err != nil {
			return elapsed{}, 0, err
		}
		*cells = append(*cells, t0.since())
		for _, n := range r.Committed {
			instr += n
		}
	}
	return start.since(), instr, nil
}

func (b *basket) timed(d time.Duration, midway func() error, o *outcome) error {
	var reps, cells []elapsed
	start := time.Now()
	deadline := start.Add(d)
	paused := false
	for len(reps) == 0 || time.Now().Before(deadline) {
		if !paused && time.Since(start) >= d/2 {
			t0 := time.Now()
			if err := midway(); err != nil {
				return err
			}
			deadline = deadline.Add(time.Since(t0))
			paused = true
		}
		t, _, err := b.rep(o, &cells)
		if err != nil {
			return err
		}
		reps = append(reps, t)
	}
	if !paused {
		if err := midway(); err != nil {
			return err
		}
	}
	// rates returns the basket throughput and the cell latency quantiles
	// on one clock.
	rates := func(of func(elapsed) time.Duration) (rate, p50, p90 float64) {
		var repS, cellMS []float64
		for _, t := range reps {
			repS = append(repS, of(t).Seconds())
		}
		for _, t := range cells {
			cellMS = append(cellMS, ms(of(t)))
		}
		return float64(len(b.cells)) / median(repS),
			blockQuantile(cellMS, len(b.cells), 0.5), blockQuantile(cellMS, len(b.cells), 0.9)
	}
	wr, w50, w90 := rates(elapsed.onWall)
	cr, c50, c90 := rates(elapsed.onCPU)
	o.setTiming("ops_per_cpu_s", wr, cr, "1/s")
	o.setTiming("lat_p50_ms", w50, c50, "ms")
	o.setTiming("lat_p90_ms", w90, c90, "ms")
	o.set("ipc_per_mm2", b.ipcPerMM2(), "IPC/mm2")
	fmt.Printf("exact-basket: %d repetitions of %d cells, %d cell latencies\n", len(reps), len(b.cells), len(cells))
	b.verify(o)
	return nil
}

// ipcPerMM2 is the basket's aggregate IPC (committed over cycles, summed
// across cells) per mm² of the configuration.
func (b *basket) ipcPerMM2() float64 {
	var instr, cycles uint64
	for _, r := range b.first {
		for _, n := range r.Committed {
			instr += n
		}
		cycles += r.Cycles
	}
	return float64(instr) / float64(cycles) / b.area
}

// verify checks every cell's Results against the accounting identities and
// a prefix of every cell against the reference stepping path.
func (b *basket) verify(o *outcome) {
	for i, r := range b.first {
		c := b.cells[i]
		var instr uint64
		for _, n := range r.Committed {
			instr += n
		}
		o.check(r.Cycles > 0 && r.IPC == float64(instr)/float64(r.Cycles),
			"%s: IPC %v is not committed/cycles %d/%d", c.w.Name, r.IPC, instr, r.Cycles)
		o.check(r.IPC <= float64(b.width), "%s: IPC %v above the total width %d", c.w.Name, r.IPC, b.width)

		fast, err := sim.Run(b.cfg, c.w, c.m, basketPrefix)
		if !o.check(err == nil, "%s: prefix run: %v", c.w.Name, err) {
			continue
		}
		ref, err := sim.RunReference(b.cfg, c.w, c.m, basketPrefix)
		if !o.check(err == nil, "%s: reference prefix run: %v", c.w.Name, err) {
			continue
		}
		o.check(reflect.DeepEqual(fast, ref), "%s: optimized and reference stepping disagree on a %d-instruction prefix",
			c.w.Name, basketPrefix.Budget)
	}
}

// traced alternates untraced repetitions with traced ones, in which each
// cell's program build, processor construction and run are separate,
// timed calls; the traced Results must equal the untraced ones.
func (b *basket) traced(d time.Duration, o *outcome) error {
	var (
		plainS, tracedS         []float64
		cells                   []elapsed
		plainInstr              uint64
		plainAlloc              uint64
		plainGCs                uint32
		plainCells              int
		newUS                   []float64
		newAlloc, runAlloc      uint64
		runNS                   = map[workload.Type]float64{}
		runCycles               = map[workload.Type]uint64{}
		repCycles, repInstr     uint64
		repFetched, repSquashed uint64
	)
	deadline := time.Now().Add(d)
	for len(tracedS) == 0 || time.Now().Before(deadline) {
		mem := startMem()
		t, instr, err := b.rep(o, &cells)
		if err != nil {
			return err
		}
		alloc, gcs := mem.stop()
		plainS = append(plainS, t.cpu.Seconds())
		plainInstr += instr
		plainAlloc += alloc
		plainGCs += gcs
		plainCells += len(b.cells)

		start := cpuTime()
		var cycles, committed, fetched, squashed uint64
		for i, c := range b.cells {
			o.attempted++
			specs, err := sim.Specs(c.w)
			if err != nil {
				o.failed++
				return err
			}
			mem := startMem()
			t0 := cpuTime()
			p, err := core.New(b.cfg, specs, c.m, core.WithWarmup(b.opt.Warmup))
			newUS = append(newUS, float64(cpuTime()-t0)/1e3)
			a, _ := mem.stop()
			newAlloc += a
			if err != nil {
				o.failed++
				return err
			}
			mem = startMem()
			t1 := cpuTime()
			r, err := p.Run(b.opt.Budget)
			runNS[c.w.Type] += float64(cpuTime() - t1)
			a, _ = mem.stop()
			runAlloc += a
			if err != nil {
				o.failed++
				return err
			}
			if !reflect.DeepEqual(r, b.first[i]) {
				o.failed++
				o.check(false, "%s: split Specs/New/Run Results differ from sim.Run", c.w.Name)
			}
			runCycles[c.w.Type] += p.Cycle()
			cycles += p.Cycle()
			for _, n := range r.Committed {
				committed += n
			}
			gs := p.GlobalStats()
			fetched += gs.TotalFetched
			squashed += gs.TotalSquashed
		}
		tracedS = append(tracedS, (cpuTime() - start).Seconds())
		repCycles, repInstr, repFetched, repSquashed = cycles, committed, fetched, squashed
	}

	var allCycles uint64
	for _, t := range workload.Types() {
		o.set("core.ns_per_cycle."+strings.ToLower(t.String()),
			runNS[t]/float64(runCycles[t]), "ns")
		allCycles += runCycles[t]
	}
	o.set("core.run_alloc_b_per_kcycle", float64(runAlloc)/float64(allCycles)*1000, "B")
	o.set("core.new_us", mean(newUS), "us")
	o.set("core.new_alloc_kb", float64(newAlloc)/float64(len(newUS))/1024, "KB")
	o.exactCount("core.cycles", float64(repCycles), "count")
	o.exactCount("core.instr", float64(repInstr), "count")
	o.exactCount("core.squash_frac", float64(repSquashed)/float64(repFetched), "ratio")
	o.set("sim.mips", float64(plainInstr)/sum(plainS)/1e6, "Minstr/s")
	o.set("runtime.alloc_kb_per_op", float64(plainAlloc)/float64(plainCells)/1024, "KB")
	o.set("runtime.gc_per_kop", float64(plainGCs)/float64(plainCells)*1000, "count")
	o.set("trace.overhead_pct", (median(tracedS)/median(plainS)-1)*100, "%")
	fmt.Printf("exact-basket traced: %d untraced and %d traced repetitions\n", len(plainS), len(tracedS))
	b.verify(o)
	return nil
}
