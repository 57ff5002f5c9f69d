package jsonl

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The appenders below write JSON values exactly as encoding/json's Marshal
// writes them, for hot-path encoders that build a document by hand instead
// of reflecting over a struct: engine request keys, job-journal records
// and SSE frames. Their tests compare them with json.Marshal.

const hexDigits = "0123456789abcdef"

// AppendString appends s quoted as json.Marshal quotes it: '"' and '\\'
// backslash-escaped; control bytes as \b, \f, \n, \r, \t or \u00XX; the
// HTML-special '<', '>' and '&' as \u003c, \u003e and \u0026; U+2028 and
// U+2029 as \u2028 and \u2029; and each byte of invalid UTF-8 as \ufffd.
// Every other byte is copied.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends the float64 f as json.Marshal writes it: the
// shortest 'f' form, switching to the 'e' form below 1e-6 and from 1e21
// up in magnitude, with a one-digit negative exponent written e-7, not
// e-07. NaN and the infinities have no JSON form: like json.Marshal,
// AppendFloat returns an error for them and b unchanged.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("jsonl: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendIndent appends src indented as json.Indent(dst, src, "", "  ")
// writes it: each element and member on its own line, two spaces per
// level, ": " after a key, empty objects and arrays kept as {} and [],
// whitespace before the value and between its tokens dropped, whitespace
// after it kept. Unlike json.Indent it does not validate src, so src must
// already be known to be valid JSON — encoding/json's output, or bytes
// json.Unmarshal has parsed; on anything else the result is undefined.
func AppendIndent(dst, src []byte) []byte {
	depth := 0       // indentation of the current line, in levels
	open := 0        // objects and arrays open at this point
	pending := false // a { or [ was just written: indent before its first member
	started := false // the value has begun; whitespace after it is kept
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			if open == 0 && started {
				dst = append(dst, c)
			}
			continue
		}
		started = true
		if pending && c != '}' && c != ']' {
			pending = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			// Copy the string through its closing quote, escapes included.
			j := i + 1
			for ; j < len(src) && src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			j = min(j, len(src)-1)
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			pending = true
			open++
			dst = append(dst, c)
		case '}', ']':
			open--
			if pending {
				pending = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendNewline starts a new line indented depth levels of two spaces.
func appendNewline(b []byte, depth int) []byte {
	b = append(b, '\n')
	for ; depth > 0; depth-- {
		b = append(b, ' ', ' ')
	}
	return b
}
