package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"hdsmt/internal/config"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// keyCases are requests whose keys are pinned below: the shapes the
// engine is given (exact, policy and sampled requests on scaled and
// unscaled machines) plus strings that must leave the encoder's fast path
// — non-ASCII, HTML-special, control and invalid UTF-8 bytes — and the
// zero request with its nil slices.
func keyCases() []Request {
	scaled, err := config.ScaleModel(config.M4, 150, 50)
	if err != nil {
		panic(err)
	}
	odd := config.NewMicroarch(config.M4, config.M2)
	odd.Name = "héllo <&> \"q\" \\ \x01\u2028\xff"
	odd.Params.RegAccessLatency = -3
	return []Request{
		{},
		{Cfg: config.MustParse("M8"), Workload: workload.MustByName("2W1"), Mapping: mapping.Mapping{0, 0},
			Budget: 10_000, Warmup: 10_000},
		{Cfg: config.MustParse("2M4+2M2"), Workload: workload.MustByName("4W6"), Mapping: mapping.Mapping{0, 1, 2, 3},
			Budget: 3_000, Warmup: 1_000, Policy: "ICOUNT.2.8"},
		{Cfg: config.MustParse("1M6+2M4+2M2"), Workload: workload.MustByName("6W3"), Mapping: mapping.Mapping{0, 0, 1, 2, 3, 4},
			Budget: 50_000, Warmup: 10_000, SamplePeriod: 100_000, SampleDetail: 2_000, SampleWarm: 5_000},
		{Cfg: config.NewMicroarch(scaled, scaled), Workload: workload.Workload{Name: "w", Benchmarks: []string{}, Type: workload.MIX},
			Mapping: mapping.Mapping{}, Budget: math.MaxUint64},
		{Cfg: odd, Workload: workload.Workload{Name: "日本", Benchmarks: []string{"a<b", "c&d>", "", "\t\n", "é"}, Type: 255},
			Mapping: mapping.Mapping{-1, 1 << 40}, Policy: "</script>"},
	}
}

// TestRequestKeyGolden pins keys computed with json.Marshal before the
// encoder replaced it: the keys address the checkpoint journal, so a
// changed key would orphan every journaled result.
func TestRequestKeyGolden(t *testing.T) {
	want := []string{
		"c2ba13c33c162f88067581da8d6885d5acf3f5c93198f9a385ab71afcfffe6ac",
		"4a5ac8b6d10d714317febc132d7530770d838e4be2235bb0691461ccf0f1b4e3",
		"5f76a6b1a15b2f21df9a8f2433f592f801b7da66de4359ddbe834bfd179071dd",
		"fe1c62019c2f875cb250f6f01433372e4f87a69b3fa5260f08d147e60e13d8fb",
		"d5ecb2dc157b00d1f99af8d281ef252fdbd6aa272e6f31d69b3461a4688843ea",
		"46a5817f4bcd38ed1e4634b299cf02680933ecd5fc8bf010c9749566f52d2a65",
	}
	for i, r := range keyCases() {
		if got := r.Key(); got != want[i] {
			t.Errorf("case %d (%s): key %s, want %s", i, r, got, want[i])
		}
	}
}

// TestAppendJSONMatchesMarshal checks the encoder byte for byte against
// json.Marshal on the pinned cases.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for i, r := range keyCases() {
		checkAppendJSON(t, i, r)
	}
}

func checkAppendJSON(t *testing.T, i int, r Request) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AppendJSON(nil); string(got) != string(want) {
		t.Fatalf("case %d: AppendJSON\n%s\njson.Marshal\n%s", i, got, want)
	}
}

// TestAppendJSONCoversEveryField fills every field of Request and of the
// structs it holds — found by reflection, so a field added later is filled
// too — with a distinct nonzero value, and compares the encoder with
// json.Marshal. A new field fails here until AppendJSON writes it; a new
// nested struct type, or a field kind the filler does not know, fails
// until the encoder and this test cover it.
func TestAppendJSONCoversEveryField(t *testing.T) {
	known := map[reflect.Type]bool{
		reflect.TypeOf(Request{}):           true,
		reflect.TypeOf(config.Microarch{}):  true,
		reflect.TypeOf(config.Model{}):      true,
		reflect.TypeOf(config.SimParams{}):  true,
		reflect.TypeOf(workload.Workload{}): true,
	}
	n := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			if !known[v.Type()] {
				t.Fatalf("%s: struct type %v is not covered by AppendJSON", path, v.Type())
			}
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0), path+"[0]")
			fill(v.Index(1), path+"[1]")
		case reflect.String:
			v.SetString("s" + strings.Repeat("x", n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(-int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(n))
		default:
			t.Fatalf("%s: field kind %v is not covered by AppendJSON", path, v.Kind())
		}
	}
	var r Request
	fill(reflect.ValueOf(&r).Elem(), "Request")
	checkAppendJSON(t, 0, r)
}

// FuzzRequestKey compares the encoder with json.Marshal on requests built
// from arbitrary strings, slices and numbers, nil and empty slices
// included.
func FuzzRequestKey(f *testing.F) {
	f.Add("2M4+2M2", "gzip\x00twolf", "ICOUNT", []byte{0, 1, 2}, uint64(3000), uint64(1000), int64(32), uint8(0x0f))
	f.Add("héllo<&>", "a\"b\x00\\\x00\xff", "", []byte{}, uint64(0), uint64(1)<<63, int64(-1), uint8(0xf0))
	f.Add("", "", "\u2028", []byte(nil), uint64(0), uint64(0), int64(0), uint8(0))
	f.Fuzz(func(t *testing.T, name, benches, policy string, nums []byte, a, b uint64, c int64, flags uint8) {
		r := Request{Budget: a, Warmup: b, Policy: policy}
		r.Cfg.Name = name
		r.Cfg.Monolithic = flags&1 != 0
		r.Cfg.Params = config.SimParams{FetchWidth: int(c), FetchMaxThreads: len(nums), ROBPerThread: -int(c),
			RenameRegs: int(a), PipelineDepth: int(b), RegAccessLatency: int(flags)}
		if flags&2 != 0 {
			r.Cfg.Pipelines = []config.Model{}
			for i, piece := range strings.Split(benches, "\x00") {
				r.Cfg.Pipelines = append(r.Cfg.Pipelines, config.Model{Name: piece, Contexts: i, Width: int(c) + i,
					ThreadsPerCycle: int(a >> 1), IQ: int(b), FQ: -i, LQ: int(c) * i, IntUnits: 1, FPUnits: int(flags),
					LdStUnits: len(piece), FetchBuf: int(a)})
			}
		}
		r.Workload.Name = policy + name
		r.Workload.Type = workload.Type(flags)
		if flags&4 != 0 {
			r.Workload.Benchmarks = strings.Split(benches, "\x00")
		}
		if flags&8 != 0 {
			r.Mapping = mapping.Mapping{}
			for _, x := range nums {
				r.Mapping = append(r.Mapping, int(int8(x))*int(c))
			}
		}
		if flags&32 != 0 {
			r.SamplePeriod, r.SampleDetail, r.SampleWarm = a, b, uint64(c)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.AppendJSON(nil); string(got) != string(want) {
			t.Fatalf("AppendJSON\n%s\njson.Marshal\n%s", got, want)
		}
	})
}

func BenchmarkRequestKey(b *testing.B) {
	r := keyCases()[2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Key()
	}
}
