package obslog

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// capture builds a logger writing into a shared buffer guarded by the
// logger's own output lock, returning the logger and a dump func.
func capture(opts ...Option) (*Logger, func() string) {
	var sb lockedBuilder
	lg := New(&sb, opts...)
	return lg, sb.String
}

type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestTextFormat(t *testing.T) {
	lg, dump := capture()
	lg.Info("job settled", F("job", "job-000001"), F("state", "done"), F("n", 3))
	line := dump()
	for _, want := range []string{"level=info", "msg=\"job settled\"", "job=job-000001", "state=done", "n=3", "ts="} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if !strings.HasSuffix(line, "\n") {
		t.Errorf("line not newline-terminated: %q", line)
	}
}

func TestQuoting(t *testing.T) {
	lg, dump := capture()
	lg.Warn("x", F("k", `a "b" = c`), F("empty", ""))
	line := dump()
	if !strings.Contains(line, `k="a \"b\" = c"`) {
		t.Errorf("value not quoted: %q", line)
	}
	if !strings.Contains(line, `empty=""`) {
		t.Errorf("empty value not quoted: %q", line)
	}
}

func TestJSONFormat(t *testing.T) {
	lg, dump := capture(WithJSON())
	lg.With(F("component", "server")).Error("boom",
		Err(errors.New("disk full")), F("count", 7), F("ratio", 0.5), F("ok", true))
	var rec map[string]any
	if err := json.Unmarshal([]byte(dump()), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v (%q)", err, dump())
	}
	if rec["level"] != "error" || rec["msg"] != "boom" || rec["component"] != "server" {
		t.Errorf("unexpected record: %v", rec)
	}
	if rec["err"] != "disk full" || rec["count"] != 7.0 || rec["ratio"] != 0.5 || rec["ok"] != true {
		t.Errorf("field encoding wrong: %v", rec)
	}
}

func TestLevelFiltering(t *testing.T) {
	lg, dump := capture(WithLevel(LevelWarn))
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	lg.Error("e")
	out := dump()
	if strings.Contains(out, "msg=d") || strings.Contains(out, "msg=i") {
		t.Errorf("below-level records emitted: %q", out)
	}
	if !strings.Contains(out, "msg=w") || !strings.Contains(out, "msg=e") {
		t.Errorf("at-level records missing: %q", out)
	}
	if lg.Enabled(LevelInfo) || !lg.Enabled(LevelWarn) {
		t.Error("Enabled disagrees with filtering")
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var lg *Logger
	lg.Info("nothing happens", F("k", "v"))
	lg.With(F("a", 1)).Error("still nothing")
	if lg.Enabled(LevelError) {
		t.Error("nil logger claims to be enabled")
	}
}

func TestWithBindsFields(t *testing.T) {
	lg, dump := capture()
	child := lg.With(F("job", "job-1")).With(F("tenant", "t1"))
	child.Info("hello")
	line := dump()
	if !strings.Contains(line, "job=job-1") || !strings.Contains(line, "tenant=t1") {
		t.Errorf("bound fields missing: %q", line)
	}
	// The parent stays unpolluted.
	lg.Info("parent")
	if lines := strings.Split(strings.TrimSpace(dump()), "\n"); strings.Contains(lines[1], "job=") {
		t.Errorf("parent polluted by child fields: %q", lines[1])
	}
}

func TestConcurrentUse(t *testing.T) {
	lg, dump := capture()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				lg.Info("concurrent", F("worker", j))
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(dump()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=concurrent") {
			t.Fatalf("interleaved or torn line: %q", line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Error("empty context has a request ID")
	}
	ctx = WithRequestID(ctx, "abc-1")
	if got := RequestID(ctx); got != "abc-1" {
		t.Errorf("RequestID = %q", got)
	}
	if WithRequestID(ctx, "") != ctx {
		t.Error("empty ID should not wrap the context")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty request ID %q", id)
		}
		if SanitizeRequestID(id) != id {
			t.Fatalf("minted ID %q fails its own sanitizer", id)
		}
		seen[id] = true
	}
}

// badRequestIDs are client-supplied IDs SanitizeRequestID must reject.
var badRequestIDs = []string{"", "has space", "quote\"", "a=b", "ctrl\x01", strings.Repeat("x", 65)}

// saneRequestID is a client-supplied ID SanitizeRequestID must keep.
const saneRequestID = "client-42/retry.1"

func TestSanitizeRequestID(t *testing.T) {
	for _, bad := range badRequestIDs {
		if got := SanitizeRequestID(bad); got != "" {
			t.Errorf("SanitizeRequestID(%q) = %q, want rejection", bad, got)
		}
	}
	if got := SanitizeRequestID(saneRequestID); got != saneRequestID {
		t.Errorf("sane ID rejected: %q", got)
	}
}

// FuzzSanitizeRequestID: any X-Request-ID value is either dropped or kept
// verbatim, a kept one is at most 64 bytes of printable ASCII without
// spaces, quotes or '=', and sanitizing is idempotent.
func FuzzSanitizeRequestID(f *testing.F) {
	for _, seed := range append([]string{saneRequestID}, badRequestIDs...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		out := SanitizeRequestID(id)
		if out != "" && out != id {
			t.Fatalf("SanitizeRequestID(%q) = %q, want the input or \"\"", id, out)
		}
		if len(out) > 64 {
			t.Fatalf("SanitizeRequestID(%q) kept %d bytes, want at most 64", id, len(out))
		}
		for i := 0; i < len(out); i++ {
			if c := out[i]; c < '!' || c > '~' || c == '"' || c == '=' {
				t.Fatalf("SanitizeRequestID(%q) kept byte %q", id, c)
			}
		}
		if again := SanitizeRequestID(out); again != out {
			t.Fatalf("SanitizeRequestID not idempotent: %q -> %q -> %q", id, out, again)
		}
	})
}
