package jsonl

import (
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
