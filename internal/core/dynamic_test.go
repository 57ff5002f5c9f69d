package core

import (
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/isa"
	"hdsmt/internal/trace"
)

// pingPong alternates thread 0 between pipelines 0 and 1 on every remap —
// the most migration-hostile remapper possible.
func pingPong(misses []uint64, current []int) []int {
	out := make([]int, len(current))
	copy(out, current)
	if out[0] == 0 {
		out[0] = 1
	} else {
		out[0] = 0
	}
	return out
}

// TestMigrationPreservesCommitSequence is the acid test for dynamic
// remapping: under constant forced migrations, every thread still commits
// exactly its trace prefix.
func TestMigrationPreservesCommitSequence(t *testing.T) {
	specs := testSpecs(t, "gcc", "twolf")
	refs := make([]*trace.Stream, len(specs))
	for i, s := range specs {
		refs[i] = trace.NewStream(s.Program, s.Seed, s.DataBase)
	}
	hook := func(tid int, in isa.Instruction) {
		var want isa.Instruction
		refs[tid].NextInto(&want)
		if in != want {
			t.Fatalf("thread %d diverged at seq %d after migrations", tid, in.Seq)
		}
	}
	p, err := New(config.MustParse("2M4+2M2"), specs, []int{0, 1},
		WithCommitHook(hook), WithDynamicMapping(500, pingPong))
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(8_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Migrations() == 0 {
		t.Fatal("no migrations happened; test is vacuous")
	}
	if r.Threads[0].Migrations == 0 {
		t.Error("per-thread migration count missing")
	}
	if r.Committed[0] != 8_000 && r.Committed[1] != 8_000 {
		t.Error("no thread reached the budget")
	}
}

// TestMigrationCostsButDoesNotWedge bounds the damage of pathological
// remapping: constant ping-pong slows the thread but must not stop it.
func TestMigrationCostsButDoesNotWedge(t *testing.T) {
	specs := testSpecs(t, "gzip", "eon")
	static, err := New(config.MustParse("2M4+2M2"), specs, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := static.Run(6_000)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(config.MustParse("2M4+2M2"), specs, []int{0, 1},
		WithDynamicMapping(300, pingPong))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dyn.Run(6_000)
	if err != nil {
		t.Fatal(err)
	}
	if rd.IPC <= 0 {
		t.Fatal("dynamic run made no progress")
	}
	if rd.IPC > rs.IPC {
		t.Logf("note: ping-pong dynamic IPC %.3f ≥ static %.3f (possible but unusual)", rd.IPC, rs.IPC)
	}
}

// TestRemapperValidation checks that broken remappers are rejected loudly.
func TestRemapperValidation(t *testing.T) {
	specs := testSpecs(t, "gzip", "eon")
	cases := []Remapper{
		func(m []uint64, c []int) []int { return []int{0} },    // wrong length
		func(m []uint64, c []int) []int { return []int{9, 9} }, // out of range
		func(m []uint64, c []int) []int { return []int{2, 2} }, // M2 overflow
	}
	for i, rm := range cases {
		p, err := New(config.MustParse("2M4+2M2"), specs, []int{0, 1},
			WithDynamicMapping(100, rm))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			_, _ = p.Run(5_000)
		}()
	}
}

// TestWithDynamicMappingPanicsOnBadArgs rejects nil/zero configuration.
func TestWithDynamicMappingPanicsOnBadArgs(t *testing.T) {
	for i, f := range []func(){
		func() { WithDynamicMapping(0, pingPong) },
		func() { WithDynamicMapping(100, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestNoRemapWhenMappingStable: a remapper that returns current must cause
// zero migrations.
func TestNoRemapWhenMappingStable(t *testing.T) {
	specs := testSpecs(t, "gzip", "eon")
	p, err := New(config.MustParse("2M4+2M2"), specs, []int{0, 1},
		WithDynamicMapping(100, func(m []uint64, c []int) []int { return c }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(4_000); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 0 {
		t.Errorf("stable remapper caused %d migrations", p.Migrations())
	}
}
