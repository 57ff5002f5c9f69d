package core

import (
	"reflect"
	"testing"

	"hdsmt/internal/config"
)

// TestActivityEquivalence is the satellite counter-equivalence test: the
// per-unit activity counters must be bit-identical between the optimized
// (event-driven wakeup + fast-forward) and the reference stepping paths —
// the counters count architectural events, never per-cycle polling, so
// skipping idle cycles must not change them. (The full-Results DeepEqual
// in the stepping-equivalence tests covers Activity too; this test pins
// the counters specifically and their internal consistency.)
func TestActivityEquivalence(t *testing.T) {
	cases := []struct {
		cfg     string
		mapping []int
		names   []string
	}{
		{"M8", []int{0, 0}, []string{"gzip", "mcf"}},
		{"2M4+2M2", []int{0, 1, 2, 3}, []string{"gzip", "mcf", "gcc", "twolf"}},
		{"1M6+2M4+2M2", []int{0, 1, 2}, []string{"gcc", "vpr", "eon"}},
	}
	for _, tc := range cases {
		opt, ref, optStats, _ := runBoth(t, config.MustParse(tc.cfg), tc.mapping, 5_000, []Option{WithWarmup(1_000)}, tc.names...)
		if !reflect.DeepEqual(opt.Activity, ref.Activity) {
			t.Errorf("%s/%v: activity diverges\noptimized: %+v\nreference: %+v",
				tc.cfg, tc.names, opt.Activity, ref.Activity)
		}

		act := opt.Activity
		// The counters are measured-phase deltas; the stage counters they
		// shadow are global. Internal consistency instead: every committed
		// instruction was fetched, decoded, issued and retired once, so the
		// per-stage counts bound each other.
		var committed uint64
		for _, n := range opt.Committed {
			committed += n
		}
		if act.Fetched < committed {
			t.Errorf("%s: fetched %d < committed %d", tc.cfg, act.Fetched, committed)
		}
		if act.Decoded < committed {
			t.Errorf("%s: decoded %d < committed %d", tc.cfg, act.Decoded, committed)
		}
		if act.RegWrites == 0 || act.RegReads == 0 {
			t.Errorf("%s: register-file activity empty: %+v", tc.cfg, act)
		}
		if act.ICacheReads == 0 || act.DCacheReads == 0 {
			t.Errorf("%s: cache activity empty: %+v", tc.cfg, act)
		}
		if act.BranchLookups == 0 {
			t.Errorf("%s: no branch lookups", tc.cfg)
		}
		if len(act.Pipes) != len(config.MustParse(tc.cfg).Pipelines) {
			t.Fatalf("%s: %d pipe activity records, want %d", tc.cfg, len(act.Pipes), len(config.MustParse(tc.cfg).Pipelines))
		}
		// Issue-queue reads and FU starts are the same events counted from
		// two structures; dispatches write each uop into exactly one queue.
		var qWrites, qReads, fuOps, bufWrites uint64
		for _, pa := range act.Pipes {
			bufWrites += pa.FetchBufWrites
			for k := 0; k < QueueKinds; k++ {
				qWrites += pa.QueueWrites[k]
				qReads += pa.QueueReads[k]
				fuOps += pa.FUOps[k]
			}
		}
		if qReads != fuOps {
			t.Errorf("%s: queue reads %d != FU ops %d", tc.cfg, qReads, fuOps)
		}
		if qWrites != act.Decoded {
			t.Errorf("%s: queue writes %d != decoded %d", tc.cfg, qWrites, act.Decoded)
		}
		if bufWrites != act.Fetched {
			t.Errorf("%s: fetch-buffer writes %d != fetched %d", tc.cfg, bufWrites, act.Fetched)
		}
		if qReads < committed {
			t.Errorf("%s: issued %d < committed %d", tc.cfg, qReads, committed)
		}
		_ = optStats
	}
}

// TestActivityWarmupBaseline pins the measured-phase subtraction: the same
// run with and without warm-up must report different totals (the warm-up
// phase's accesses are excluded), and every counter stays internally
// consistent after subtraction (no wrap-around).
func TestActivityWarmupBaseline(t *testing.T) {
	run := func(warmup uint64) Results {
		var opts []Option
		if warmup > 0 {
			opts = append(opts, WithWarmup(warmup))
		}
		p, err := New(config.MustParse("2M4"), testSpecs(t, "gzip", "mcf"), []int{0, 1}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(4_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cold := run(0)
	warm := run(2_000)
	if cold.Activity.Fetched == 0 || warm.Activity.Fetched == 0 {
		t.Fatal("no fetch activity recorded")
	}
	// Sanity against wrap-around: a uint64 underflow would produce an
	// astronomically large counter.
	const absurd = uint64(1) << 60
	for name, v := range map[string]uint64{
		"fetched": warm.Activity.Fetched, "decoded": warm.Activity.Decoded,
		"reg_reads": warm.Activity.RegReads, "l2": warm.Activity.L2Accesses,
	} {
		if v > absurd {
			t.Errorf("warmup-subtracted %s counter wrapped: %d", name, v)
		}
	}
}
