// Package jsonl is the shared crash-safe JSONL journal substrate behind
// the engine's checkpoint journal and the server's job journal: an
// append-only file of one JSON document per line, opened with a replay
// that tolerates — and heals — the partial final line a SIGKILL mid-write
// leaves behind, and appended to through one Writer.
package jsonl

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hdsmt/internal/faultinject"
	"hdsmt/internal/retry"
)

// Writer appends records to a JSONL file opened by Open. Each record is
// encoded into a buffer the Writer reuses and goes to the file in a
// single Write, so concurrent appends never interleave bytes. A nil
// *Writer appends nothing.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	point string // fault-injection point hit before each write attempt
	// buf holds the record being written, under mu; it keeps its capacity
	// between appends unless a large record grew it past maxBuf.
	buf []byte
}

const maxBuf = 64 << 10

// appendRetry absorbs transient write failures (EINTR, a slow NFS mount,
// an injected fault) in three quick tries without stalling the appender
// for long.
var appendRetry = retry.Policy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

// Open opens the JSONL file at path with OpenHealed, replaying every line
// through decode, and returns a Writer appending to it; torn counts the
// lines decode rejected. point names the fault-injection point each write
// attempt hits.
func Open(path, point string, decode func(line []byte) error) (*Writer, int, error) {
	f, torn, err := OpenHealed(path, decode)
	if err != nil {
		return nil, 0, err
	}
	return &Writer{f: f, point: point}, torn, nil
}

// Append writes one record: enc appends it, without a newline, to the
// empty buffer it is given and returns the result. A write that fails is
// retried with backoff; the last error is returned, and no part of a
// failed encoding is written.
func (w *Writer) Append(enc func(b []byte) ([]byte, error)) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b, err := enc(w.buf[:0])
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if cap(b) <= maxBuf {
		w.buf = b
	}
	return retry.Do(context.Background(), appendRetry, func() error {
		if err := faultinject.Hit(w.point); err != nil {
			return err
		}
		_, werr := w.f.Write(b)
		return werr
	})
}

// Close closes the file; a nil *Writer has none.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// OpenHealed opens (creating if needed) the JSONL file at path, replays
// every line through decode, and positions the file for appending.
//
// decode is called once per non-blank line; returning an error marks the
// line torn or corrupt (it is counted in torn, and skipped). After the
// scan the file's tail is healed: bytes after the last well-formed line
// are truncated away, and a final valid line that lost its newline in a
// crash gets one — so the next append always starts on a clean line
// boundary instead of concatenating onto torn bytes and corrupting a
// fresh entry.
func OpenHealed(path string, decode func(line []byte) error) (f *os.File, torn int, err error) {
	f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("jsonl: opening %s: %w", path, err)
	}
	var (
		offset      int64 // bytes consumed so far
		valid       int64 // offset just past the last well-formed line
		needNewline bool  // last valid line parsed but lost its '\n'
	)
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, rerr := r.ReadBytes('\n')
		offset += int64(len(line))
		complete := len(line) > 0 && line[len(line)-1] == '\n'
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			if derr := decode(trimmed); derr != nil {
				torn++
			} else {
				valid, needNewline = offset, !complete
			}
		} else if complete {
			valid, needNewline = offset, false // blank line: harmless, keep position
		}
		if rerr != nil {
			if rerr != io.EOF {
				f.Close()
				return nil, 0, fmt.Errorf("jsonl: reading %s: %w", path, rerr)
			}
			break
		}
	}
	if valid < offset {
		if terr := f.Truncate(valid); terr != nil {
			f.Close()
			return nil, 0, fmt.Errorf("jsonl: healing %s: %w", path, terr)
		}
	}
	if _, serr := f.Seek(valid, 0); serr != nil {
		f.Close()
		return nil, 0, fmt.Errorf("jsonl: seeking %s: %w", path, serr)
	}
	if needNewline {
		if _, werr := f.Write([]byte{'\n'}); werr != nil {
			f.Close()
			return nil, 0, fmt.Errorf("jsonl: healing %s: %w", path, werr)
		}
	}
	return f, torn, nil
}
