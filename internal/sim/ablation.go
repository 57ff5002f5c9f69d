package sim

import (
	"context"
	"fmt"
	"strings"

	"hdsmt/internal/config"
	"hdsmt/internal/engine"
	"hdsmt/internal/fetch"
	"hdsmt/internal/mapping"
	"hdsmt/internal/workload"
)

// Ablations quantify the design choices the paper asserts but does not
// sweep: the 2-cycle shared-register-file penalty (§4), the decoupling
// buffer sizes (§2/§4), and the fetch-policy choice (§4). Every variant
// is an engine job — parameter mutations (RegAccessLatency, FetchBuf) and
// policy overrides are part of the request, so each variant keys and
// caches separately.

// AblationPoint is one configuration variant's result.
type AblationPoint struct {
	Label string
	IPC   float64
}

// AblationResult is a named sweep.
type AblationResult struct {
	Name     string
	Workload string
	Points   []AblationPoint
}

// Render formats the sweep as an aligned table.
func (a AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s (workload %s)\n", a.Name, a.Workload)
	for _, p := range a.Points {
		fmt.Fprintf(&b, "  %-24s IPC %.4f\n", p.Label, p.IPC)
	}
	return b.String()
}

// runSweep batches a labeled list of requests and collects their IPCs.
func (r *Runner) runSweep(ctx context.Context, out *AblationResult, labels []string, reqs []engine.Request) error {
	results, err := r.eng.RunBatch(ctx, reqs)
	if err != nil {
		return err
	}
	for i, res := range results {
		out.Points = append(out.Points, AblationPoint{Label: labels[i], IPC: res.IPC})
	}
	return nil
}

// AblateRFLatency sweeps the shared-register-file access latency on a
// heterogeneous configuration. The paper charges hdSMT 2 cycles (vs the
// baseline's 1) for multipipeline register-file sharing; the sweep shows
// what that assumption costs.
func (r *Runner) AblateRFLatency(ctx context.Context, w workload.Workload, opt Options) (AblationResult, error) {
	out := AblationResult{Name: "register-file access latency (2M4+2M2)", Workload: w.Name}
	var labels []string
	var reqs []engine.Request
	for _, lat := range []int{1, 2, 3} {
		cfg := config.MustParse("2M4+2M2")
		cfg.Params.RegAccessLatency = lat
		m, err := DefaultMapping(cfg, w)
		if err != nil {
			return out, err
		}
		labels = append(labels, fmt.Sprintf("%d-cycle RF access", lat))
		reqs = append(reqs, newRequest(cfg, w, m, opt.Budget, opt.Warmup))
	}
	err := r.runSweep(ctx, &out, labels, reqs)
	return out, err
}

// AblateFetchBuffer sweeps the per-pipeline decoupling buffer size on
// 2M4+2M2 (the paper fixes 32 entries for M4 and 16 for M2; the sweep
// scales both proportionally).
func (r *Runner) AblateFetchBuffer(ctx context.Context, w workload.Workload, opt Options) (AblationResult, error) {
	out := AblationResult{Name: "decoupling buffer size (2M4+2M2)", Workload: w.Name}
	var labels []string
	var reqs []engine.Request
	for _, scale := range []int{1, 2, 4, 8} {
		m4 := config.M4
		m4.FetchBuf = 8 * scale
		m2 := config.M2
		m2.FetchBuf = 4 * scale
		cfg := config.NewMicroarch(m4, m4, m2, m2)
		m, err := DefaultMapping(cfg, w)
		if err != nil {
			return out, err
		}
		labels = append(labels, fmt.Sprintf("M4:%d/M2:%d entries", m4.FetchBuf, m2.FetchBuf))
		reqs = append(reqs, newRequest(cfg, w, m, opt.Budget, opt.Warmup))
	}
	err := r.runSweep(ctx, &out, labels, reqs)
	return out, err
}

// AblateFetchPolicy compares the three fetch policies on the monolithic
// baseline for one workload (the paper adopts FLUSH for the baseline and
// L1MCOUNT for multipipeline configurations).
func (r *Runner) AblateFetchPolicy(ctx context.Context, w workload.Workload, opt Options) (AblationResult, error) {
	out := AblationResult{Name: "fetch policy (M8)", Workload: w.Name}
	cfg := config.MustParse("M8")
	var labels []string
	var reqs []engine.Request
	for _, pol := range []fetch.Policy{fetch.ICount{}, fetch.Flush{}, fetch.L1MCount{}} {
		req := newRequest(cfg, w, make(mapping.Mapping, w.Threads()), opt.Budget, opt.Warmup)
		// The configuration's own default policy keeps Policy empty so
		// this point shares its cache key with plain runs of cfg.
		if pol.Name() != defaultPolicyName(cfg) {
			req.Policy = pol.Name()
		}
		labels = append(labels, pol.Name())
		reqs = append(reqs, req)
	}
	err := r.runSweep(ctx, &out, labels, reqs)
	return out, err
}

// RunAblations executes all three ablations on one workload (cmd/experiments
// uses the representative MIX workload 4W6).
func (r *Runner) RunAblations(ctx context.Context, w workload.Workload, opt Options) ([]AblationResult, error) {
	var out []AblationResult
	for _, f := range []func(context.Context, workload.Workload, Options) (AblationResult, error){
		r.AblateRFLatency, r.AblateFetchBuffer, r.AblateFetchPolicy,
	} {
		a, err := f(ctx, w, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
