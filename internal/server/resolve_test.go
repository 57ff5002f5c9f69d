package server

import (
	"bytes"
	"testing"
)

// FuzzJobSpec: any POST /jobs body the submit decoder accepts must
// validate without a panic — resolve either accepts the spec or returns
// the error handleSubmit turns into a 400. The server has no archive
// directory, so archive-backed pareto specs take the rejection path.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		// The specs TestHandlerStatusCodes submits (tinyRun, slowSweep).
		`{"kind":"run","config":"M8","workload":"2W1","budget":2000,"warmup":1000}`,
		`{"kind":"sweep","configs":["2M4+2M2"],"workloads":["4W6"],"budget":400000,"warmup":50000}`,
		`{"kind":"sweep","timeout_sec":0.15,"configs":["2M4+2M2"],"workloads":["4W6"],"budget":400000,"warmup":50000}`,
		`{"kind":"run","config":"2M4+2M2","workload":"4W6","mapping":[0,1,1,2]}`,
		`{"kind":"evaluate","config":"M8","workload":"2W1","oracle_budget":1500,"max_oracle":4}`,
		`{"kind":"sweep"}`,
		`{"kind":"search","strategy":"aco","search_budget":5,"workloads":["2W7"],"max_pipes":2,"enriched":true}`,
		`{"kind":"pareto","search_budget":5,"objectives":["ipc","area"],"archive":"front"}`,
		`{"kind":"run","config":"M8","workload":"2W1","timeout_sec":1e10}`,
		// An unknown field: the submit decoder refuses it.
		`{"kind":"search","remap_intervals":[2048],"strategy":"aco","search_budget":5,"workloads":["2W7"]}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _, _, _ = s.resolve(spec)
	})
}
