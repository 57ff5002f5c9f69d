package mapping

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hdsmt/internal/config"
)

func TestValidate(t *testing.T) {
	cfg := config.MustParse("2M4+2M2") // contexts 2,2,1,1
	if err := Validate(cfg, Mapping{0, 0, 1, 2, 3}); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	if err := Validate(cfg, Mapping{2, 2}); err == nil {
		t.Error("M2 context overflow accepted")
	}
	if err := Validate(cfg, Mapping{4}); err == nil {
		t.Error("out-of-range pipeline accepted")
	}
	if err := Validate(cfg, Mapping{-1}); err == nil {
		t.Error("negative pipeline accepted")
	}
}

func TestHeuristicOrdersByMissesAndWidth(t *testing.T) {
	// 2M4+2M2, 4 threads, 6 contexts: contexts > threads, so step 4
	// retires the first M4 after the cleanest thread lands on it.
	cfg := config.MustParse("2M4+2M2")
	misses := []uint64{500, 10, 90000, 2000} // ascending: t1, t0, t3, t2
	m, err := Heuristic(cfg, misses)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cfg, m); err != nil {
		t.Fatal(err)
	}
	// t1 (fewest misses) gets pipeline 0 (widest), privately (step 4).
	if m[1] != 0 {
		t.Errorf("cleanest thread on pipeline %d, want 0", m[1])
	}
	// t0 next: pipeline 1 (second M4); t3 also pipeline 1 (2 contexts);
	// t2 (mcf-like) is pushed to the narrow M2 (pipeline 2).
	if m[0] != 1 || m[3] != 1 {
		t.Errorf("middle threads = %d,%d, want both on pipeline 1", m[0], m[3])
	}
	if m[2] != 2 {
		t.Errorf("dirtiest thread on pipeline %d, want the first M2 (2)", m[2])
	}
}

func TestHeuristicNoSpareContexts(t *testing.T) {
	// 3M4 with 6 threads: contexts == threads, step 4 does not fire; the
	// widest pipeline takes two threads.
	cfg := config.MustParse("3M4")
	misses := []uint64{1, 2, 3, 4, 5, 6}
	m, err := Heuristic(cfg, misses)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cfg, m); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, p := range m {
		counts[p]++
	}
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 2 {
		t.Errorf("distribution = %v, want 2 per pipeline", counts)
	}
	// Adjacent threads in miss order share pipelines (paper: "adjacent
	// applications in the list T ... could share a single pipeline").
	if m[0] != m[1] || m[2] != m[3] || m[4] != m[5] {
		t.Errorf("mapping = %v: adjacent threads must share", m)
	}
}

func TestHeuristicMonolithic(t *testing.T) {
	cfg := config.MustParse("M8")
	m, err := Heuristic(cfg, []uint64{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 0 || m[1] != 0 {
		t.Errorf("monolithic mapping = %v", m)
	}
}

func TestHeuristicErrors(t *testing.T) {
	if _, err := Heuristic(config.MustParse("M8"), nil); err == nil {
		t.Error("no threads must fail")
	}
	// M2 alone holds one context.
	cfg := config.NewMicroarch(config.M2)
	if _, err := Heuristic(cfg, []uint64{1, 2}); err == nil {
		t.Error("more threads than contexts must fail")
	}
}

func TestHeuristicDeterministicOnTies(t *testing.T) {
	cfg := config.MustParse("2M4+2M2")
	a, err := Heuristic(cfg, []uint64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Heuristic(cfg, []uint64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tied misses produced nondeterministic mapping")
		}
	}
}

func TestEnumerateSmall(t *testing.T) {
	// 2 threads on 2M4+2M2: pipelines (M4a M4b M2a M2b). Distinct
	// placements up to same-model symmetry:
	//   both on one M4; split across the M4s; one per M2... enumerate and
	//   sanity check count and validity.
	cfg := config.MustParse("2M4+2M2")
	ms := Enumerate(cfg, 2)
	if len(ms) == 0 {
		t.Fatal("no mappings")
	}
	for _, m := range ms {
		if err := Validate(cfg, m); err != nil {
			t.Errorf("invalid enumerated mapping %v: %v", m, err)
		}
	}
	// Symmetry dedup: {t0,t1 on M4a} and {t0,t1 on M4b} are one mapping.
	// Raw assignments: both-same-M4 (2) → 1; t0,t1 on different M4s (2
	// ordered) → 1; one on M4, one on M2 (2×2×2=8 ordered) → 2 (which
	// thread rides the M4); both on M2s (2 ordered) → 1; total 5.
	if len(ms) != 5 {
		for _, m := range ms {
			t.Logf("mapping %v", m)
		}
		t.Errorf("enumerated %d mappings, want 5", len(ms))
	}
}

func TestEnumerateMonolithic(t *testing.T) {
	ms := Enumerate(config.MustParse("M8"), 3)
	if len(ms) != 1 {
		t.Errorf("monolithic enumeration = %d mappings, want 1", len(ms))
	}
}

func TestEnumerateCapacityEdge(t *testing.T) {
	if ms := Enumerate(config.MustParse("M8"), 5); ms != nil {
		t.Error("5 threads on 4 contexts must enumerate to nil")
	}
	if ms := Enumerate(config.MustParse("M8"), 0); ms != nil {
		t.Error("0 threads must enumerate to nil")
	}
}

// TestEnumerateThreadBound: the signature's 64-bit thread masks must
// tell apart and deduplicate mappings that differ only in thread 63, and
// Enumerate must refuse n above 64 rather than alias threads.
func TestEnumerateThreadBound(t *testing.T) {
	wide := config.Model{Name: "W", Contexts: 65, Width: 8}
	narrow := config.Model{Name: "N", Contexts: 1, Width: 2}
	cfg := config.NewMicroarch(wide, narrow, narrow)
	// All on W; one thread on an N (which N is symmetric); one thread on
	// each N (an unordered pair): 1 + 64 + C(64,2).
	ms := Enumerate(cfg, 64)
	if want := 1 + 64 + 64*63/2; len(ms) != want {
		t.Errorf("64 threads: %d mappings, want %d", len(ms), want)
	}
	if ms := Enumerate(cfg, 65); ms != nil {
		t.Errorf("65 threads: %d mappings, want nil (above the 64-thread bound)", len(ms))
	}
}

func TestEnumerateIncludesHeuristic(t *testing.T) {
	// The heuristic's result must appear in the enumeration (up to
	// symmetry), for every evaluated multipipeline config and size.
	for _, name := range []string{"3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"} {
		cfg := config.MustParse(name)
		for _, n := range []int{2, 4} {
			misses := make([]uint64, n)
			for i := range misses {
				misses[i] = uint64(i * 100)
			}
			hm, err := Heuristic(cfg, misses)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			canon := newCanonical(cfg)
			sig := string(canon.key(hm))
			found := false
			for _, m := range Enumerate(cfg, n) {
				if string(canon.key(m)) == sig {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s/%d: heuristic mapping %v not in enumeration", name, n, hm)
			}
		}
	}
}

func TestEnumerateSixThreads(t *testing.T) {
	cfg := config.MustParse("1M6+2M4+2M2")
	ms := Enumerate(cfg, 6)
	if len(ms) == 0 {
		t.Fatal("no mappings for 6 threads")
	}
	for _, m := range ms {
		if err := Validate(cfg, m); err != nil {
			t.Fatalf("invalid mapping: %v", err)
		}
	}
	t.Logf("1M6+2M4+2M2 with 6 threads: %d distinct mappings", len(ms))
}

// Property: every enumerated mapping validates, and enumeration is
// duplicate-free under the canonical signature.
func TestEnumerateProperty(t *testing.T) {
	configs := []string{"3M4", "2M4+2M2", "3M4+2M2"}
	f := func(pick, rawN uint8) bool {
		cfg := config.MustParse(configs[int(pick)%len(configs)])
		n := 1 + int(rawN)%4
		canon := newCanonical(cfg)
		seen := map[string]bool{}
		for _, m := range Enumerate(cfg, n) {
			if Validate(cfg, m) != nil {
				return false
			}
			sig := string(canon.key(m))
			if seen[sig] {
				return false
			}
			seen[sig] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMappingString(t *testing.T) {
	if got := (Mapping{0, 2, 1}).String(); got != "[0 2 1]" {
		t.Errorf("got %q", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Mapping{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("clone aliases original")
	}
}

// enumerateGoldenConfigs × n = 1..8 is the grid TestEnumerateGolden pins.
// "1M4+1M4q75+1M4" parses to two M4s that are not adjacent (equal widths
// keep their written order), so same-model pipelines must be grouped by
// model, not by position.
var enumerateGoldenConfigs = []string{
	"M8", "2M4", "4M2", "3M4", "4M4", "2M4+2M2", "3M4+2M2",
	"1M6+2M4+2M2", "1M8+4M2", "6M2", "1M4+1M4q75+1M4",
}

// TestEnumerateGolden pins Enumerate's output, set and order: for every
// grid cell the SHA-256 of fmt.Sprint(Enumerate(cfg, n)) must equal the
// digest testdata/enumerate.sha256 records. A change to the dedup
// signature must keep every digest; on a mismatch the test prints the new
// line.
func TestEnumerateGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "enumerate.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			want[f[0]] = f[1] + " " + f[2]
		}
	}
	for _, name := range enumerateGoldenConfigs {
		cfg := config.MustParse(name)
		for n := 1; n <= 8; n++ {
			key := fmt.Sprintf("%s/%d", name, n)
			ms := Enumerate(cfg, n)
			got := fmt.Sprintf("%d %x", len(ms), sha256.Sum256([]byte(fmt.Sprint(ms))))
			if got != want[key] {
				t.Errorf("%s: enumeration changed; new line:\n%s %s", key, key, got)
			}
		}
	}
}

// BenchmarkEnumerate measures one evaluate job's oracle enumeration.
func BenchmarkEnumerate(b *testing.B) {
	cfg := config.MustParse("1M6+2M4+2M2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ms := Enumerate(cfg, 4); len(ms) != 105 {
			b.Fatalf("%d mappings, want 105", len(ms))
		}
	}
}
