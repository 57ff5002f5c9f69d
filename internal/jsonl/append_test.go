package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendStringMatchesMarshal covers every escaping rule: each ASCII
// byte, HTML-special and separator characters, multi-byte runes and
// invalid or truncated UTF-8.
func TestAppendStringMatchesMarshal(t *testing.T) {
	var ascii strings.Builder
	for c := 0; c < 0x80; c++ {
		ascii.WriteByte(byte(c))
	}
	cases := []string{
		"", "plain", ascii.String(), "h\u00e9llo \u65e5\u672c", "<script>&amp;</script>",
		"a\u2028b\u2029c\u2027", "\xff", "x\xe2\x80", "a\xc0\xafb", "\xed\xa0\x80",
		"\U0001F600", "\x7f\x00\x1f", `"\`,
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

// TestAppendFloatMatchesMarshal covers both format switches and the
// exponent clean-up on either side of them.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-6, -1e-6, 9.999999e-7, 1e-7,
		1.5e-10, 1e-300, 5e-324, 1e20, 9.99999e20, 1e21, -1e21, 1.5e22, 1e100,
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 12.345, 1000.001,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%g) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%g) succeeded", f)
		}
		if got, err := AppendFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("AppendFloat(%g) = %q, %v; want b unchanged and an error", f, got, err)
		}
	}
}

// indentCases are valid documents for AppendIndent: whitespace around and
// between tokens, escapes (quotes, backslashes, \u forms) inside keys and
// strings, empty and nested objects and arrays, scalars at the top level
// and whitespace after the value.
var indentCases = []string{
	`{}`, `[]`, `{"a":{},"b":[],"c":[{}],"d":[[]]}`, `null`, `true`, `-1.5e-7`, `"x"`,
	` {"a" : 1 ,"b":[ 1, 2 ,{ } ] } `, "\t\r\n[1]\n", `[ ]`, `{ }`, "{}  \n",
	`{"k\"ey":"v\\","é":"a b","q":"\"","s":"{[,:]}"}`,
	`{"nested":{"deeper":{"deepest":[1,[2,[3,{}]]]}},"after":"x"}`,
	`["a\\",",","\\\"",":"]`, "{\"a\":\"tab\\t inside\"}\n",
}

// TestAppendIndentMatchesIndent holds AppendIndent to json.Indent with no
// prefix and a two-space indent, appending after existing bytes.
func TestAppendIndentMatchesIndent(t *testing.T) {
	for _, src := range indentCases {
		checkIndent(t, []byte(src))
	}
}

// FuzzAppendIndent compares AppendIndent with json.Indent on every valid
// input the fuzzer finds.
func FuzzAppendIndent(f *testing.F) {
	for _, src := range indentCases {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			return
		}
		checkIndent(t, src)
	})
}

func checkIndent(t *testing.T, src []byte) {
	t.Helper()
	var want bytes.Buffer
	want.WriteString("x")
	if err := json.Indent(&want, src, "", "  "); err != nil {
		t.Fatalf("json.Indent(%q): %v", src, err)
	}
	if got := AppendIndent([]byte("x"), src); string(got) != want.String() {
		t.Errorf("AppendIndent(%q) =\n%s\nwant\n%s", src, got, want.Bytes())
	}
}
