package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedHitIsTransparent(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("registry armed at start")
	}
	for i := 0; i < 100; i++ {
		if err := Hit(PointJournalAppend); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
	}
	if c := CountsFor(PointJournalAppend); c != (Counts{}) {
		t.Errorf("disarmed counts = %+v, want zero", c)
	}
}

func TestErrorInjectionIsSeedDeterministic(t *testing.T) {
	t.Cleanup(Disable)
	run := func(seed int64) []bool {
		Enable(seed, map[string]Fault{PointJournalAppend: {Err: 0.5}})
		outcomes := make([]bool, 200)
		for i := range outcomes {
			outcomes[i] = Hit(PointJournalAppend) != nil
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	errs := 0
	for _, hit := range a {
		if hit {
			errs++
		}
	}
	if errs == 0 || errs == len(a) {
		t.Errorf("err=0.5 triggered %d/%d times — not probabilistic", errs, len(a))
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical fault schedule")
	}
}

func TestInjectedErrorIsRecognizable(t *testing.T) {
	t.Cleanup(Disable)
	Enable(1, map[string]Fault{PointJournalAppend: {Err: 1}})
	err := Hit(PointJournalAppend)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	if c := CountsFor(PointJournalAppend); c.Errs != 1 || c.Hits != 1 {
		t.Errorf("counts = %+v, want 1 err / 1 hit", c)
	}
	// Unconfigured points stay transparent while armed.
	if err := Hit(PointSimulate); err != nil {
		t.Errorf("unconfigured point returned %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	t.Cleanup(Disable)
	Enable(1, map[string]Fault{PointSimulate: {Panic: 1}})
	defer func() {
		if r := recover(); r == nil {
			t.Error("panic=1 did not panic")
		}
		if c := CountsFor(PointSimulate); c.Panics != 1 {
			t.Errorf("counts = %+v, want 1 panic", c)
		}
	}()
	_ = Hit(PointSimulate)
}

func TestDelayInjection(t *testing.T) {
	t.Cleanup(Disable)
	Enable(1, map[string]Fault{PointJobJournalAppend: {Delay: 20 * time.Millisecond}})
	start := time.Now()
	if err := Hit(PointJobJournalAppend); err != nil {
		t.Fatalf("delay-only fault returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Hit returned after %v, want >= 20ms", d)
	}
	if c := CountsFor(PointJobJournalAppend); c.Delays != 1 {
		t.Errorf("counts = %+v, want 1 delay", c)
	}
}

func TestParseSpec(t *testing.T) {
	faults, err := ParseSpec("server.jobjournal.append:err=0.3+delay=5ms@0.5, engine.simulate:panic=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if got := faults["server.jobjournal.append"]; got.Err != 0.3 || got.Delay != 5*time.Millisecond || got.DelayProb != 0.5 {
		t.Errorf("jobjournal.append fault = %+v", got)
	}
	if got := faults["engine.simulate"]; got.Panic != 0.01 {
		t.Errorf("simulate fault = %+v", got)
	}
	// delay without @prob defaults to always.
	faults, err = ParseSpec("engine.journal.append:delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := faults["engine.journal.append"]; got.DelayProb != 1 {
		t.Errorf("delay prob = %g, want 1", got.DelayProb)
	}

	for _, bad := range []string{
		"",
		"noattrs",
		"engine.simulate:err=2",
		"engine.simulate:panic=-1",
		"engine.simulate:delay=xyz",
		"engine.simulate:delay=1ms@1.5",
		"engine.simulate:frob=1",
		"engine.simulate:err",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestParseSpecRejectsUnknownPoint: a point name that no call site hits
// would arm nothing, so ParseSpec refuses it and names the wired points;
// each of those parses.
func TestParseSpecRejectsUnknownPoint(t *testing.T) {
	for _, bad := range []string{"engine.simulte:panic=1", "engine.store.save:err=0.3", "engine.simulate:err=1,p:err=1"} {
		_, err := ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted an unknown point", bad)
			continue
		}
		for _, p := range Points {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("ParseSpec(%q) error %q does not list point %s", bad, err, p)
			}
		}
	}
	for _, p := range Points {
		if _, err := ParseSpec(p + ":err=1"); err != nil {
			t.Errorf("wired point %s rejected: %v", p, err)
		}
	}
}
