package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"hdsmt/internal/faultinject"
)

// testPoint is the fault-injection point the writers under test hit.
const testPoint = faultinject.PointJobJournalAppend

type testRecord struct {
	G   int    `json:"g"`
	I   int    `json:"i"`
	Pad string `json:"pad"`
}

func openWriter(t *testing.T) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.jsonl")
	w, torn, err := Open(path, testPoint, func([]byte) error { return nil })
	if err != nil || torn != 0 {
		t.Fatalf("Open = %d torn, %v", torn, err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

// TestWriterConcurrentAppends: records appended from several goroutines
// at once land as whole lines, each record written in one attempt, so
// replay reads every record back exactly once.
func TestWriterConcurrentAppends(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	faultinject.Enable(1, map[string]faultinject.Fault{testPoint: {}}) // count write attempts only
	w, path := openWriter(t)
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Records of varied length, some past one page, so a
				// record split across writes would show.
				rec := testRecord{G: g, I: i, Pad: string(bytes.Repeat([]byte{'a' + byte(g)}, (i*37)%5000))}
				if err := w.Append(func(b []byte) ([]byte, error) {
					line, err := json.Marshal(rec)
					return append(b, line...), err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits := faultinject.CountsFor(testPoint).Hits; hits != goroutines*each {
		t.Errorf("%d write attempts for %d records, want one each", hits, goroutines*each)
	}

	var seen [goroutines][each]bool
	_, torn, err := OpenHealed(path, func(line []byte) error {
		var rec testRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.G < 0 || rec.G >= goroutines || rec.I < 0 || rec.I >= each || seen[rec.G][rec.I] ||
			len(rec.Pad) != (rec.I*37)%5000 || (rec.Pad != "" && rec.Pad[0] != 'a'+byte(rec.G)) {
			return fmt.Errorf("bad or repeated record %d/%d", rec.G, rec.I)
		}
		seen[rec.G][rec.I] = true
		return nil
	})
	if err != nil || torn != 0 {
		t.Fatalf("replay: %d torn lines, %v", torn, err)
	}
	for g := range seen {
		for i, ok := range seen[g] {
			if !ok {
				t.Errorf("record %d/%d missing", g, i)
			}
		}
	}
}

// TestWriterRetriesFaultThenFails: an armed error fault is retried up to
// the policy's attempts, its error is then returned, and nothing reaches
// the file; once the fault clears, the next record starts a clean line.
func TestWriterRetriesFaultThenFails(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	faultinject.Enable(1, map[string]faultinject.Fault{testPoint: {Err: 1}})
	w, path := openWriter(t)
	enc := func(v int) func([]byte) ([]byte, error) {
		return func(b []byte) ([]byte, error) { return strconv.AppendInt(b, int64(v), 10), nil }
	}
	err := w.Append(enc(1))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append under err=1 = %v, want the injected fault", err)
	}
	if c := faultinject.CountsFor(testPoint); c.Hits != uint64(appendRetry.Attempts) || c.Errs != c.Hits {
		t.Errorf("fault counts %+v, want %d failed attempts", c, appendRetry.Attempts)
	}
	faultinject.Disable()
	if err := w.Append(enc(2)); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "2\n" {
		t.Errorf("file = %q, %v; want only the record written after the fault cleared", b, err)
	}
}

// TestWriterEncodeError: a record that fails to encode writes nothing.
func TestWriterEncodeError(t *testing.T) {
	w, path := openWriter(t)
	bad := errors.New("unencodable")
	if err := w.Append(func(b []byte) ([]byte, error) { return append(b, "partial"...), bad }); err != bad {
		t.Fatalf("Append = %v, want %v", err, bad)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) != 0 {
		t.Errorf("file = %q, %v; want empty", b, err)
	}
}
