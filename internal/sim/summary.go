package sim

import (
	"fmt"
	"strings"

	"hdsmt/internal/area"
	"hdsmt/internal/config"
	"hdsmt/internal/metrics"
	"hdsmt/internal/workload"
)

// Summary reproduces the paper's §5 headline numbers from the three
// sub-figures' measurements.
type Summary struct {
	// PerfAreaVsMonolithic is the improvement in IPC/mm² of the best
	// heterogeneous configuration over the monolithic baseline, averaged
	// over workload classes (paper: +13%).
	PerfAreaVsMonolithic float64
	// PerfAreaVsHomogeneous is the same against the best homogeneous
	// clustered configuration (paper: +14%).
	PerfAreaVsHomogeneous float64
	// RawPerfMonoVsHd is the monolithic baseline's raw-IPC speedup over
	// the best-performing heterogeneous configuration, averaged over
	// classes (paper: +6% overall; +5/4/15% for ILP/MEM/MIX against
	// 1M6+2M4+2M2).
	RawPerfMonoVsHd float64
	// RawPerfHdVsHomo is the heterogeneous raw-IPC speedup over
	// homogeneous clustering (paper: +7%).
	RawPerfHdVsHomo float64
	// PerClassPerfArea2M4 is 2M4+2M2's HEUR IPC/mm² improvement over the
	// baseline per class (paper: ILP +15%, MEM +18%, MIX +10%).
	PerClassPerfArea2M4 map[string]float64
	// RawPerClassMonoVs1M6 is M8's raw-IPC speedup over 1M6+2M4+2M2 per
	// class (paper: ILP 5%, MEM 4%, MIX 15%).
	RawPerClassMonoVs1M6 map[string]float64
	// HeurAccuracy is the mean HEUR/BEST ratio per heterogeneous
	// configuration (paper: 92% on 2M4+2M2, 88% on 3M4+2M2, 96% on
	// 1M6+2M4+2M2).
	HeurAccuracy map[string]float64
}

var (
	homogeneous   = []string{"3M4", "4M4"}
	heterogeneous = []string{"2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"}
)

// Summarize derives the headline numbers from the per-type figures
// (as produced by RunFigure for ILP, MEM and MIX).
func Summarize(figs map[workload.Type]FigResult) (Summary, error) {
	s := Summary{
		PerClassPerfArea2M4:  map[string]float64{},
		RawPerClassMonoVs1M6: map[string]float64{},
		HeurAccuracy:         map[string]float64{},
	}
	areaOf := func(name string) float64 {
		return area.MustTotal(config.MustParse(name))
	}

	heurOverall := func(f FigResult, cfg string) float64 {
		return f.Values[cfg]["HMEAN"].Heur
	}

	var vsMono, vsHomo, monoVsHd, hdVsHomo []float64
	for t, f := range figs {
		m8 := heurOverall(f, "M8")

		bestHetPA := 0.0
		for _, name := range heterogeneous {
			if pa := heurOverall(f, name) / areaOf(name); pa > bestHetPA {
				bestHetPA = pa
			}
		}
		bestHomoPA := 0.0
		for _, name := range homogeneous {
			if pa := heurOverall(f, name) / areaOf(name); pa > bestHomoPA {
				bestHomoPA = pa
			}
		}
		m8PA := m8 / areaOf("M8")
		vsMono = append(vsMono, bestHetPA/m8PA)
		vsHomo = append(vsHomo, bestHetPA/bestHomoPA)

		bestHetIPC := 0.0
		for _, name := range heterogeneous {
			if v := heurOverall(f, name); v > bestHetIPC {
				bestHetIPC = v
			}
		}
		bestHomoIPC := 0.0
		for _, name := range homogeneous {
			if v := heurOverall(f, name); v > bestHomoIPC {
				bestHomoIPC = v
			}
		}
		monoVsHd = append(monoVsHd, m8/bestHetIPC)
		hdVsHomo = append(hdVsHomo, bestHetIPC/bestHomoIPC)

		// Per-class quotes.
		cls := t.String()
		s.PerClassPerfArea2M4[cls] = metrics.Improvement(
			heurOverall(f, "2M4+2M2")/areaOf("2M4+2M2"), m8PA)
		s.RawPerClassMonoVs1M6[cls] = metrics.Improvement(
			m8, heurOverall(f, "1M6+2M4+2M2"))
	}
	s.PerfAreaVsMonolithic = metrics.GeoMean(vsMono) - 1
	s.PerfAreaVsHomogeneous = metrics.GeoMean(vsHomo) - 1
	s.RawPerfMonoVsHd = metrics.GeoMean(monoVsHd) - 1
	s.RawPerfHdVsHomo = metrics.GeoMean(hdVsHomo) - 1

	// Heuristic accuracy per heterogeneous configuration, averaged over
	// every workload of every class.
	for _, name := range heterogeneous {
		var accs []float64
		for _, f := range figs {
			for _, m := range f.PerWorkload[name] {
				if m.Best > 0 {
					accs = append(accs, metrics.Accuracy(m.Heur, m.Best))
				}
			}
		}
		if len(accs) > 0 {
			s.HeurAccuracy[name] = metrics.GeoMean(accs)
		}
	}
	return s, nil
}

// Render formats the summary against the paper's quoted values.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline summary (paper §5 quotes in parentheses)\n")
	fmt.Fprintf(&b, "  IPC/mm² best-hdSMT vs monolithic SMT:    %+6.1f%%  (paper +13%%)\n", 100*s.PerfAreaVsMonolithic)
	fmt.Fprintf(&b, "  IPC/mm² best-hdSMT vs homogeneous:       %+6.1f%%  (paper +14%%)\n", 100*s.PerfAreaVsHomogeneous)
	fmt.Fprintf(&b, "  raw IPC monolithic vs best-hdSMT:        %+6.1f%%  (paper +6%%)\n", 100*s.RawPerfMonoVsHd)
	fmt.Fprintf(&b, "  raw IPC hdSMT vs homogeneous:            %+6.1f%%  (paper +7%%)\n", 100*s.RawPerfHdVsHomo)
	for _, cls := range []string{"ILP", "MEM", "MIX"} {
		if v, ok := s.PerClassPerfArea2M4[cls]; ok {
			fmt.Fprintf(&b, "  IPC/mm² 2M4+2M2 vs M8, %s:              %+6.1f%%\n", cls, 100*v)
		}
	}
	for _, cls := range []string{"ILP", "MEM", "MIX"} {
		if v, ok := s.RawPerClassMonoVs1M6[cls]; ok {
			fmt.Fprintf(&b, "  raw IPC M8 vs 1M6+2M4+2M2, %s:          %+6.1f%%\n", cls, 100*v)
		}
	}
	for _, name := range heterogeneous {
		if v, ok := s.HeurAccuracy[name]; ok {
			fmt.Fprintf(&b, "  HEUR accuracy on %-12s            %6.1f%%\n", name+":", 100*v)
		}
	}
	return b.String()
}
