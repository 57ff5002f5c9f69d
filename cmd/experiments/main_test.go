package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactsMatchCommitted regenerates pinned artifacts in-process and
// compares them byte for byte with the committed files. BENCH_PR3 runs
// with tracing on, so the instrumented engine path is the one compared.
// BENCH_PR10 takes minutes and is checked in CI only.
func TestArtifactsMatchCommitted(t *testing.T) {
	for _, tc := range []struct {
		flag, file string
		extra      []string
		long       bool
	}{
		{flag: "perf", file: "BENCH_PR2.json"},
		{flag: "search", file: "BENCH_PR3.json", extra: []string{"-tracepath", filepath.Join(t.TempDir(), "trace.json")}},
		{flag: "power", file: "BENCH_PR5.json"},
		{flag: "pareto", file: "BENCH_PR4.json", long: true},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("regenerating BENCH_PR4 takes about 16 s")
			}
			out := filepath.Join(t.TempDir(), tc.file)
			args := append([]string{"-quiet", "-reps", "1", "-" + tc.flag, out}, tc.extra...)
			if code := run(args); code != 0 {
				t.Fatalf("run %v: exit status %d", args, code)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-%s output differs from the committed %s", tc.flag, tc.file)
			}
		})
	}
}

// assertUsageError runs args and requires exit status 2 with nothing
// written to out.
func assertUsageError(t *testing.T, out string, args ...string) {
	t.Helper()
	if code := run(args); code != 2 {
		t.Errorf("run %v: exit status %d, want 2", args, code)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("run %v wrote %s (stat error %v)", args, out, err)
	}
}

func TestRepsBelowOneIsUsageError(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	assertUsageError(t, out, "-quiet", "-sampled", out, "-reps", "0")
	assertUsageError(t, out, "-quiet", "-perf", out, "-reps", "-1")
}

func TestUnknownFigureIsUsageError(t *testing.T) {
	out := filepath.Join(t.TempDir(), "csv")
	assertUsageError(t, out, "-quiet", "-figure", "4d", "-csv", out)
}
