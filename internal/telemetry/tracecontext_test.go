package telemetry

import "testing"

// FuzzParseTraceparent: any header value, as a client sends it, must parse
// without a panic. A rejected header yields the zero TraceContext; an
// accepted one yields a valid context whose own rendering parses back to
// it. Seeds are the header cases of the server's traceparent table test.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736xx-00f067aa0ba902b7-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected the header but returned %+v", h, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its rendering %q parses to (%+v, %v)",
				h, tc, tc.Traceparent(), back, ok)
		}
	})
}
