package sim

import (
	"context"
	"strings"
	"testing"

	"hdsmt/internal/engine"
	"hdsmt/internal/workload"
)

// TestExploreProgress pins the satellite contract: every candidate reports
// exactly once, in order, skipped candidates included.
func TestExploreProgress(t *testing.T) {
	r, err := NewRunner(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cands, err := CandidateConfigs(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wls := []workload.Workload{workload.MustByName("4W6")} // 4 threads: 1-pipe candidates skip
	var seen []int
	rs, err := r.Explore(context.Background(), wls, cands, tinyOptions(), func(done int) {
		seen = append(seen, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cands) {
		t.Fatalf("progress fired %d times for %d candidates", len(seen), len(cands))
	}
	for i, v := range seen {
		if v != i+1 {
			t.Fatalf("progress[%d] = %d, want %d", i, v, i+1)
		}
	}
	anySkipped := false
	for _, res := range rs {
		anySkipped = anySkipped || res.Skipped
	}
	if !anySkipped {
		t.Error("expected 1-pipeline candidates to be skipped on a 4-thread workload (progress must still count them)")
	}
}

// TestExploreCancellation covers the untested cancel path: a context
// canceled mid-exploration aborts the sweep with the context's error.
func TestExploreCancellation(t *testing.T) {
	r, err := NewRunner(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cands, err := CandidateConfigs(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	wls := []workload.Workload{workload.MustByName("2W7")}

	// Canceled before the first submission.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Explore(pre, wls, cands, tinyOptions(), nil); err == nil {
		t.Fatal("pre-canceled context must abort the exploration")
	}

	// Canceled mid-run, from the progress callback itself.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = r.Explore(ctx, wls, cands, tinyOptions(), func(done int) {
		if done == 1 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("mid-run cancellation must abort the exploration")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: context not canceled")
	}
}

// TestExploreValidation covers the satellite input checks: an empty
// candidate list is an error, not an empty ranking, and a filter
// combination that removes every candidate says so.
func TestExploreValidation(t *testing.T) {
	wls := []workload.Workload{workload.MustByName("2W7")}
	if _, err := testRunner(t).Explore(context.Background(), wls, nil, tinyOptions(), nil); err == nil {
		t.Error("empty candidate list must fail")
	} else if !strings.Contains(err.Error(), "no candidate configurations") {
		t.Errorf("unhelpful empty-candidates error: %v", err)
	}

	if _, err := CandidateConfigs(2, 1.0); err == nil {
		t.Error("an area cap below the smallest machine must fail")
	} else if !strings.Contains(err.Error(), "filters out every candidate") {
		t.Errorf("unhelpful all-filtered error: %v", err)
	}
}
