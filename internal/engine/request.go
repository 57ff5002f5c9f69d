package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"hdsmt/internal/config"
	"hdsmt/internal/core"
	"hdsmt/internal/jsonl"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// Request describes one processor simulation: a microarchitecture, a
// workload, a thread-to-pipeline mapping and an instruction budget. It is
// the engine's unit of work and of memoization — two Requests with the
// same content are the same job.
type Request struct {
	// Cfg is the full microarchitecture, parameters included, so variants
	// that share a name but differ in parameters (ablation sweeps mutate
	// RegAccessLatency and FetchBuf) key differently.
	Cfg config.Microarch `json:"cfg"`
	// Workload names the benchmark mix. Benchmarks are identified by name;
	// their traces are deterministic functions of the name and seed, so the
	// name list fully identifies the inputs.
	Workload workload.Workload `json:"workload"`
	// Mapping assigns each thread a pipeline.
	Mapping mapping.Mapping `json:"mapping"`
	// Budget is the measured instructions per thread (the stopping rule).
	Budget uint64 `json:"budget"`
	// Warmup is the unmeasured per-thread instruction count run first.
	Warmup uint64 `json:"warmup"`
	// Policy optionally overrides the fetch policy by name (as reported by
	// fetch.Policy.Name); "" means the configuration's default.
	Policy string `json:"policy,omitempty"`
	// Remap, when nonzero, re-evaluates the §2.1 heuristic mapping every
	// Remap cycles on observed per-thread miss counts, migrating threads
	// when the ranking changes (the paper's §7 dynamic-mapping proposal).
	// 0 keeps the static mapping. omitempty keeps static requests' keys —
	// and therefore every existing journal — unchanged.
	Remap uint64 `json:"remap,omitempty"`
	// SamplePeriod/SampleDetail/SampleWarm, when SamplePeriod is nonzero,
	// select sampled execution (core.RunSampled) with these parameters.
	// Every sampling parameter participates in the key: a sampled estimate
	// and a full run of the same design point — or two sampled runs at
	// different operating points — are different jobs and memoize
	// separately. omitempty keeps exact requests' keys, and therefore every
	// existing journal, unchanged.
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleDetail uint64 `json:"sample_detail,omitempty"`
	SampleWarm   uint64 `json:"sample_warm,omitempty"`
}

// Sample returns the request's sampling parameters in core's terms; the
// zero value (Enabled() == false) selects exact execution.
func (r Request) Sample() core.SampleParams {
	return core.SampleParams{Period: r.SamplePeriod, Detail: r.SampleDetail, Warm: r.SampleWarm}
}

// Key returns the request's content-addressed identity: the hex SHA-256
// of json.Marshal(r). Struct fields marshal in declaration order, so equal
// requests produce equal keys across processes — the property the
// checkpoint journal relies on. The bytes come from AppendJSON,
// which writes what json.Marshal would without reflection, into a stack
// buffer; TestRequestKeyGolden, TestAppendJSONCoversEveryField and
// FuzzRequestKey hold it to json.Marshal.
func (r Request) Key() string {
	var buf [1024]byte
	sum := sha256.Sum256(r.AppendJSON(buf[:0]))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// AppendJSON appends json.Marshal(r) to b. The bytes hold every field, so
// they also serve, unhashed, as a content key (sim's plan cache).
func (r Request) AppendJSON(b []byte) []byte {
	b = append(b, `{"cfg":{"Name":`...)
	b = jsonl.AppendString(b, r.Cfg.Name)
	b = append(b, `,"Pipelines":`...)
	if r.Cfg.Pipelines == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, m := range r.Cfg.Pipelines {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendModel(b, m)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Monolithic":`...)
	b = strconv.AppendBool(b, r.Cfg.Monolithic)
	p := r.Cfg.Params
	b = appendInt(b, `,"Params":{"FetchWidth":`, p.FetchWidth)
	b = appendInt(b, `,"FetchMaxThreads":`, p.FetchMaxThreads)
	b = appendInt(b, `,"ROBPerThread":`, p.ROBPerThread)
	b = appendInt(b, `,"RenameRegs":`, p.RenameRegs)
	b = appendInt(b, `,"PipelineDepth":`, p.PipelineDepth)
	b = appendInt(b, `,"RegAccessLatency":`, p.RegAccessLatency)
	b = append(b, `}},"workload":{"Name":`...)
	b = jsonl.AppendString(b, r.Workload.Name)
	b = append(b, `,"Benchmarks":`...)
	if r.Workload.Benchmarks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, name := range r.Workload.Benchmarks {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonl.AppendString(b, name)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Type":`...)
	b = strconv.AppendUint(b, uint64(r.Workload.Type), 10)
	b = append(b, `},"mapping":`...)
	if r.Mapping == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range r.Mapping {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	b = appendUint(b, `,"budget":`, r.Budget)
	b = appendUint(b, `,"warmup":`, r.Warmup)
	if r.Policy != "" {
		b = append(b, `,"policy":`...)
		b = jsonl.AppendString(b, r.Policy)
	}
	b = appendNonzero(b, `,"remap":`, r.Remap)
	b = appendNonzero(b, `,"sample_period":`, r.SamplePeriod)
	b = appendNonzero(b, `,"sample_detail":`, r.SampleDetail)
	b = appendNonzero(b, `,"sample_warm":`, r.SampleWarm)
	return append(b, '}')
}

func appendModel(b []byte, m config.Model) []byte {
	b = append(b, `{"Name":`...)
	b = jsonl.AppendString(b, m.Name)
	b = appendInt(b, `,"Contexts":`, m.Contexts)
	b = appendInt(b, `,"Width":`, m.Width)
	b = appendInt(b, `,"ThreadsPerCycle":`, m.ThreadsPerCycle)
	b = appendInt(b, `,"IQ":`, m.IQ)
	b = appendInt(b, `,"FQ":`, m.FQ)
	b = appendInt(b, `,"LQ":`, m.LQ)
	b = appendInt(b, `,"IntUnits":`, m.IntUnits)
	b = appendInt(b, `,"FPUnits":`, m.FPUnits)
	b = appendInt(b, `,"LdStUnits":`, m.LdStUnits)
	b = appendInt(b, `,"FetchBuf":`, m.FetchBuf)
	return append(b, '}')
}

// appendInt appends a field's name part (its comma, quoted name and
// colon) and its value.
func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendUint(b []byte, name string, v uint64) []byte {
	return strconv.AppendUint(append(b, name...), v, 10)
}

// appendNonzero appends an omitempty field unless v is 0.
func appendNonzero(b []byte, name string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return appendUint(b, name, v)
}

// String describes the request compactly for logs and errors.
func (r Request) String() string {
	s := fmt.Sprintf("%s/%s map=%v budget=%d", r.Cfg.Name, r.Workload.Name, r.Mapping, r.Budget)
	if r.Policy != "" {
		s += " policy=" + r.Policy
	}
	if r.Remap != 0 {
		s += fmt.Sprintf(" remap=%d", r.Remap)
	}
	if r.SamplePeriod != 0 {
		s += fmt.Sprintf(" sampled=%d/%d+%d", r.SamplePeriod, r.SampleDetail, r.SampleWarm)
	}
	return s
}
