package server

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// odd is text that leaves every fast path of the string appender:
// non-ASCII, HTML-special and control bytes, U+2028 and invalid UTF-8.
const odd = "h\xc3\xa9llo <&> \"q\" \\ \x01\x7f\t\n\xe2\x80\xa8\xff"

// recordCases are journal records of every kind the server writes, with
// odd strings, results spliced from json.Marshal output and timestamps on
// both sides of the float format switches.
func recordCases(t testing.TB) []jobEvent {
	result, err := json.Marshal(map[string]any{"ipc": 1.25, "tiny": 1e-7, "huge": 1e22, "name": odd})
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Kind: "pareto", Priority: -2, TimeoutSec: 1.5e-7, Config: odd, Configs: []string{"M8", "<b>"},
		Workloads: []string{"2W7"}, Mapping: []int{0, 1}, Budget: 3_000, AreaCap: 1e21, Objectives: []string{"ipc"}}
	return []jobEvent{
		{},
		{ID: "job-000001", Event: "running", TL: &Event{Seq: 4, TMS: 0.123, Type: EventStarted}},
		{ID: "job-000001", Event: "accepted", Tenant: odd, Priority: 7, Spec: spec, Created: "2026-01-02T03:04:05.123456789Z",
			RequestID: "req-1", Traceparent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
			TL: &Event{Seq: 1, TMS: 0, Type: EventAccepted, Detail: "pareto"}},
		{ID: "job-000002", Event: "done", Result: result, Finished: "2026-01-02T03:04:06Z",
			TL: &Event{Seq: 5, TMS: 9.99e-7, Type: EventSettled, Detail: "done"}},
		{ID: "job-000003", Event: "failed", Error: "job panicked: " + odd, Finished: "x",
			TL: &Event{Seq: 6, TMS: 1e21, Type: EventSettled, Detail: "failed: " + odd, Job: "job-000003"}},
		{ID: "job-000004", Event: "timeline", TL: &Event{Seq: 3, TMS: 12345.678, Type: EventQueued, Detail: "awaiting an active slot"}},
		{ID: "job-000005", Event: "evicted", TL: &Event{Seq: -1, TMS: -1e-7, Type: EventEvicted, Detail: "rejected: " + odd}},
		{ID: "job-000006", Event: "done", Result: json.RawMessage("null"), TL: &Event{TMS: 9.999999e20}},
	}
}

// checkRecord compares the journal and SSE encodings of ev with
// json.Marshal and the frame format written with it: the same bytes, or
// an error from both.
func checkRecord(t *testing.T, ev jobEvent) {
	t.Helper()
	want, werr := json.Marshal(ev)
	got, gerr := ev.appendJSON(nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("json.Marshal error %v, appendJSON error %v", werr, gerr)
	}
	if werr == nil && string(got) != string(want) {
		t.Fatalf("appendJSON\n%s\njson.Marshal\n%s", got, want)
	}
	if ev.TL == nil {
		return
	}
	data, werr := json.Marshal(ev.TL)
	frame, gerr := ev.TL.appendSSE(nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("json.Marshal error %v, appendSSE error %v", werr, gerr)
	}
	if want := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.TL.Seq, ev.TL.Type, data); werr == nil && string(frame) != want {
		t.Fatalf("appendSSE\n%q\nwant\n%q", frame, want)
	}
}

// TestJobEventAppendMatchesMarshal checks the record encoder byte for
// byte against json.Marshal on the cases above, then on a record whose
// every field — found by reflection over jobEvent and Event, so a field
// added later is filled too — holds a distinct nonzero value. A new field
// fails here until appendJSON writes it; a new field type fails until the
// encoder and this test cover it.
func TestJobEventAppendMatchesMarshal(t *testing.T) {
	for _, ev := range recordCases(t) {
		checkRecord(t, ev)
	}

	n := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		n++
		switch v.Type() {
		case reflect.TypeOf(jobEvent{}), reflect.TypeOf(Event{}):
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.TypeOf(&Event{}):
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), path)
		case reflect.TypeOf(&JobSpec{}):
			// Marshaled by json.Marshal inside the encoder.
			v.Set(reflect.ValueOf(&JobSpec{Kind: "run", Config: fmt.Sprint(n), Mapping: []int{n}}))
		case reflect.TypeOf(json.RawMessage{}):
			raw, _ := json.Marshal([]any{n, odd})
			v.SetBytes(raw)
		default:
			switch v.Kind() {
			case reflect.String:
				v.SetString(odd + strings.Repeat("x", n))
			case reflect.Int, reflect.Int64:
				v.SetInt(-int64(n))
			case reflect.Float64:
				v.SetFloat(float64(n) / 3)
			default:
				t.Fatalf("%s: field type %v is not covered by appendJSON", path, v.Type())
			}
		}
	}
	var ev jobEvent
	fill(reflect.ValueOf(&ev).Elem(), "jobEvent")
	if ev.TL == nil || ev.TL.Job == "" || ev.Spec == nil {
		t.Fatalf("filler left fields empty: %+v", ev)
	}
	checkRecord(t, ev)
}

// TestJobJournalAppendAllocs: journaling a record that carries no spec
// allocates nothing once the writer's buffer has grown. Each job journals
// four such records besides its accepted one, so a warm served job would
// pay any allocation here several times over.
func TestJobJournalAppendAllocs(t *testing.T) {
	jj, _, _, err := openJobJournal(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jj.Close()
	for _, ev := range recordCases(t) {
		if ev.Spec != nil {
			continue // the accepted record marshals its spec by reflection
		}
		rec := &ev
		if allocs := testing.AllocsPerRun(100, func() { _ = jj.Append(rec.appendJSON) }); allocs != 0 {
			t.Errorf("%q record: %v allocations per append, want 0", ev.Event, allocs)
		}
	}
}

// FuzzJobEventRecord compares the record and SSE encoders with
// json.Marshal on records built from arbitrary strings and numbers: text
// of any bytes, floats on both sides of 1e-6 and 1e21, and the values
// json.Marshal refuses (NaN and the infinities), where both must fail.
func FuzzJobEventRecord(f *testing.F) {
	f.Add("job-000001", "accepted", odd, "<script>&</script>", 3, int64(1), 0.0, 1.5, "a\x00b", uint8(0xff))
	f.Add("", "", "", "", 0, int64(0), 9.99e-7, 1e-6, "", uint8(0))
	f.Add("\xe6\x97\xa5\xe6\x9c\xac", "done", "\xe2\x80\xa9", "\x1f", -1, int64(-5), 1e21, 9.999e20, "\xff\xfe", uint8(7))
	f.Add("j", "failed", "t", "d", 1<<40, int64(1)<<62, -1e-7, -1e22, "\\\"", uint8(6))
	f.Add("j", "x", "t", "d", 0, int64(2), math.NaN(), math.Inf(1), "n", uint8(5))
	f.Fuzz(func(t *testing.T, id, event, text, detail string, pri int, seq int64, tms, num float64, errmsg string, flags uint8) {
		ev := jobEvent{ID: id, Event: event, Tenant: text, Priority: pri, Created: detail, RequestID: text + detail,
			Traceparent: errmsg, Error: errmsg, Finished: detail}
		if flags&1 != 0 {
			ev.Spec = &JobSpec{Kind: event, Config: text, Workloads: []string{detail}, TimeoutSec: num, AreaCap: tms}
		}
		if flags&2 != 0 {
			if raw, err := json.Marshal(map[string]any{"text": text, "num": num, "tms": tms}); err == nil {
				ev.Result = raw
			}
		}
		if flags&4 != 0 {
			ev.TL = &Event{Seq: seq, TMS: tms, Type: event + text, Detail: detail}
			if flags&8 != 0 {
				ev.TL.Job = id
			}
		}
		checkRecord(t, ev)
	})
}
