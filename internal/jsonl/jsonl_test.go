package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// healCases are journals a crash or a bad writer can leave behind, with
// what OpenHealed must make of them.
var healCases = []struct {
	name   string
	in     string
	torn   int
	healed string
}{
	{"empty", "", 0, ""},
	{"clean", "{\"a\":1}\n{\"a\":2}\n", 0, "{\"a\":1}\n{\"a\":2}\n"},
	{"torn final line", "{\"a\":1}\n{\"a\":2}\n{\"a\":", 1, "{\"a\":1}\n{\"a\":2}\n"},
	{"valid final line without newline", "{\"a\":1}\n{\"a\":2}", 0, "{\"a\":1}\n{\"a\":2}\n"},
	{"blank lines", "{\"a\":1}\n\n  \n{\"a\":2}\n\n", 0, "{\"a\":1}\n\n  \n{\"a\":2}\n\n"},
	{"unterminated blank tail", "{\"a\":1}\n   ", 0, "{\"a\":1}\n"},
	{"rejected middle line", "{\"a\":1}\nnot json\n{\"a\":2}\n", 1, "{\"a\":1}\nnot json\n{\"a\":2}\n"},
	{"rejected final line", "{\"a\":1}\nnot json\n", 1, "{\"a\":1}\n"},
	{"only torn bytes", "{\"a\"", 1, ""},
}

// openHealed writes in to a fresh journal and opens it with a decoder that
// accepts valid JSON, returning the accepted lines too.
func openHealed(t *testing.T, in []byte) (f *os.File, path string, decoded []string, torn int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	f, decoded, torn = reopen(t, path)
	return f, path, decoded, torn
}

func reopen(t *testing.T, path string) (*os.File, []string, int) {
	t.Helper()
	var decoded []string
	f, torn, err := OpenHealed(path, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("invalid JSON")
		}
		decoded = append(decoded, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, decoded, torn
}

// appendAndReopen appends one record through f and requires that a
// reopen decodes it as a line of its own after the earlier ones.
func appendAndReopen(t *testing.T, f *os.File, path string, decoded []string) {
	t.Helper()
	const next = `{"next":true}`
	if _, err := f.Write([]byte(next + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, again, _ := reopen(t, path)
	f2.Close()
	if want := append(append([]string(nil), decoded...), next); !reflect.DeepEqual(again, want) {
		t.Errorf("after an append, reopen decoded %q, want %q", again, want)
	}
}

func TestOpenHealed(t *testing.T) {
	for _, tc := range healCases {
		t.Run(tc.name, func(t *testing.T) {
			f, path, decoded, torn := openHealed(t, []byte(tc.in))
			if torn != tc.torn {
				t.Errorf("torn = %d, want %d", torn, tc.torn)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.healed {
				t.Errorf("healed file = %q, want %q", got, tc.healed)
			}
			appendAndReopen(t, f, path, decoded)
			got, err = os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.healed + "{\"next\":true}\n"; string(got) != want {
				t.Errorf("file after append = %q, want %q", got, want)
			}
		})
	}
}

// FuzzOpenHealed checks healing on arbitrary bytes: the healed file is
// the input up to its last accepted line (plus a newline that line may
// have lost), it is empty or ends in a newline, and the next append is
// decoded as a line of its own after every line the first open accepted.
func FuzzOpenHealed(f *testing.F) {
	for _, tc := range healCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		jf, path, decoded, torn := openHealed(t, in)
		if torn < 0 {
			t.Fatalf("torn = %d", torn)
		}
		healed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(healed) > 0 && healed[len(healed)-1] != '\n' {
			t.Fatalf("healed file %q does not end in a newline", healed)
		}
		if !bytes.HasPrefix(in, bytes.TrimSuffix(healed, []byte("\n"))) {
			t.Fatalf("healed file %q is not a prefix of the input %q", healed, in)
		}
		appendAndReopen(t, jf, path, decoded)
	})
}
