package search

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArchivePersistenceRoundTrip is the satellite persistence test: a
// multi-objective search pointed at an archive path checkpoints its front
// there, and a second search with the same path restores it instead of
// starting empty — the canceled-job resume path.
func TestArchivePersistenceRoundTrip(t *testing.T) {
	sp := smallSpace(t)
	objs := mustObjectives(t, "ipc,area")
	path := filepath.Join(t.TempDir(), "front.json")
	r := newTestRunner(t)

	first, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 6, Seed: 3, Sim: testSimOptions(), Objectives: objs, ArchivePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Front) == 0 {
		t.Fatal("first run archived nothing")
	}
	if first.RestoredFront != 0 {
		t.Errorf("fresh run restored %d members", first.RestoredFront)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("archive file missing: %v", err)
	}

	// A second run — different seed, tiny budget — must start from the
	// saved front rather than rediscover it.
	second, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 2, Seed: 99, Sim: testSimOptions(), Objectives: objs, ArchivePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.RestoredFront == 0 {
		t.Fatal("second run restored nothing from the archive file")
	}
	if len(second.Hypervolume) == 0 || second.Hypervolume[0].Evaluations != 0 {
		t.Errorf("restored front must open the hypervolume trajectory at evaluation 0, got %+v", second.Hypervolume)
	}
	// Every first-run front member either survives in the second front or
	// was evicted by a dominating discovery — it must never silently vanish
	// into a smaller dominated region (hypervolume can only grow).
	firstHV := first.Hypervolume[len(first.Hypervolume)-1].Hypervolume
	secondHV := second.Hypervolume[len(second.Hypervolume)-1].Hypervolume
	if secondHV < firstHV {
		t.Errorf("resumed hypervolume %v below the checkpoint's %v", secondHV, firstHV)
	}
	if err := CheckFront(objs, second.Front); err != nil {
		t.Error(err)
	}
}

// TestArchivePersistenceObjectiveMismatch pins the fail-fast: resuming an
// archive under different objectives must error, not merge incomparable
// vectors.
func TestArchivePersistenceObjectiveMismatch(t *testing.T) {
	sp := smallSpace(t)
	path := filepath.Join(t.TempDir(), "front.json")
	r := newTestRunner(t)
	if _, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 2, Seed: 1, Sim: testSimOptions(), Objectives: mustObjectives(t, "ipc,area"), ArchivePath: path,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 2, Seed: 1, Sim: testSimOptions(), Objectives: mustObjectives(t, "ipc,fairness"), ArchivePath: path,
	})
	if err == nil || !strings.Contains(err.Error(), "objectives") {
		t.Errorf("objective-mismatched resume: err = %v, want objectives complaint", err)
	}
}

// TestArchivePersistenceCorruptMember pins the fail-loudly path: a
// restored member missing an objective value (truncated or foreign file)
// errors out instead of panicking the process.
func TestArchivePersistenceCorruptMember(t *testing.T) {
	sp := smallSpace(t)
	path := filepath.Join(t.TempDir(), "front.json")
	corrupt := `{"objectives":["ipc","area"],"front":[{"evaluations":1,"config":"2M2","values":{"ipc":0.5}}]}`
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newTestRunner(t)
	_, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 2, Seed: 1, Sim: testSimOptions(), Objectives: mustObjectives(t, "ipc,area"), ArchivePath: path,
	})
	if err == nil || !strings.Contains(err.Error(), `"area"`) {
		t.Errorf("corrupt archive member: err = %v, want missing-value complaint", err)
	}
}

// TestArchivePathNeedsObjectives pins the scalar-run guard.
func TestArchivePathNeedsObjectives(t *testing.T) {
	sp := smallSpace(t)
	r := newTestRunner(t)
	_, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 2, Seed: 1, Sim: testSimOptions(), ArchivePath: filepath.Join(t.TempDir(), "f.json"),
	})
	if err == nil || !strings.Contains(err.Error(), "multi-objective") {
		t.Errorf("scalar run with ArchivePath: err = %v, want multi-objective complaint", err)
	}
}

// TestFrontProgressStreaming is the satellite streaming test at the driver
// level: the callback fires on archive changes with a mutually
// non-dominated front and a hypervolume matching the trajectory.
func TestFrontProgressStreaming(t *testing.T) {
	sp := smallSpace(t)
	objs := mustObjectives(t, "ipc,area")
	r := newTestRunner(t)
	calls := 0
	var lastFront []TrajectoryPoint
	var lastHV float64
	res, err := NewDriver(r).Search(context.Background(), sp, Random{}, Options{
		Budget: 6, Seed: 3, Sim: testSimOptions(), Objectives: objs,
		FrontProgress: func(front []TrajectoryPoint, hv float64) {
			calls++
			if len(front) == 0 {
				t.Error("front progress delivered an empty front")
			}
			if err := CheckFront(objs, front); err != nil {
				t.Error(err)
			}
			lastFront, lastHV = front, hv
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("front progress never fired")
	}
	if calls != len(res.Hypervolume) {
		t.Errorf("front progress fired %d times, hypervolume trajectory has %d points", calls, len(res.Hypervolume))
	}
	if want := res.Hypervolume[len(res.Hypervolume)-1].Hypervolume; lastHV != want {
		t.Errorf("last streamed hypervolume %v != final %v", lastHV, want)
	}
	if len(lastFront) != len(res.Front) {
		t.Errorf("last streamed front has %d members, result front %d", len(lastFront), len(res.Front))
	}
}

// TestFourObjectiveSearch runs the headline end-to-end path at test scale:
// a budgeted NSGA-II over (ipc, area, fairness, energy), every front
// member carrying all four metrics plus the derived ED/ED².
func TestFourObjectiveSearch(t *testing.T) {
	sp := smallSpace(t)
	objs := mustObjectives(t, "ipc,area,fairness,energy")
	r := newTestRunner(t)
	res, err := NewDriver(r).Search(context.Background(), sp, NSGA2{}, Options{
		Budget: 8, Seed: 5, Sim: testSimOptions(), Objectives: objs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty 4-objective front")
	}
	if err := CheckFront(objs, res.Front); err != nil {
		t.Fatal(err)
	}
	for _, fp := range res.Front {
		for _, key := range []string{"ipc", "area", "fairness", "energy", "per_area", "ed", "ed2"} {
			if v, ok := fp.Values[key]; !ok || v <= 0 {
				t.Errorf("front member %s: metric %q = %v (present %v), want positive", fp.Name(), key, v, ok)
			}
		}
	}
	last := 0.0
	for _, hp := range res.Hypervolume {
		if hp.Hypervolume < last {
			t.Fatalf("4-objective MC hypervolume fell from %v to %v", last, hp.Hypervolume)
		}
		last = hp.Hypervolume
	}
}
