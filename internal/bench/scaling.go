package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// ScalePoint is one concurrency point of a strong-scaling experiment.
type ScalePoint struct {
	Config    CoreConfig
	Breakdown tally.Breakdown
	Bandwidth int
	// Phase times in modelled seconds, the five bar segments of Fig. 4.
	PeripheralSpMSpV float64
	PeripheralOther  float64
	OrderingSpMSpV   float64
	OrderingSort     float64
	OrderingOther    float64
	// Total is the sum of the five segments (the height of the bar).
	Total float64
	// SpMSpVComp and SpMSpVComm split all SPMSPV time into computation
	// and communication: the two series of Fig. 5. The per-direction BFS
	// level counts of the run live on Breakdown
	// (TopDownLevels/BottomUpLevels).
	SpMSpVComp float64
	SpMSpVComm float64
}

// ScaleSeries is the strong-scaling curve of one matrix.
type ScaleSeries struct {
	Name   string
	N, NNZ int
	Points []ScalePoint
}

// runScalePoint executes one distributed RCM run and extracts the breakdown.
func runScalePoint(a *spmat.CSR, cc CoreConfig, base *tally.Model, mode core.SortMode, opt core.Options) ScalePoint {
	model := base.WithThreads(cc.Threads)
	ord := core.Distributed(a, core.DistOptions{
		Procs:    cc.Procs,
		Model:    model,
		SortMode: mode,
		Options:  opt,
	})
	b := ord.Breakdown
	pt := ScalePoint{
		Config:           cc,
		Breakdown:        b,
		Bandwidth:        a.Permute(ord.Perm).Bandwidth(),
		PeripheralSpMSpV: secs(b.PhaseNs(tally.PeripheralSpMSpV)),
		PeripheralOther:  secs(b.PhaseNs(tally.PeripheralOther)),
		OrderingSpMSpV:   secs(b.PhaseNs(tally.OrderingSpMSpV)),
		OrderingSort:     secs(b.PhaseNs(tally.OrderingSort)),
		OrderingOther:    secs(b.PhaseNs(tally.OrderingOther)),
		SpMSpVComp:       secs(b.SpMSpVCompNs()),
		SpMSpVComm:       secs(b.SpMSpVCommNs()),
	}
	pt.Total = pt.PeripheralSpMSpV + pt.PeripheralOther + pt.OrderingSpMSpV + pt.OrderingSort + pt.OrderingOther
	return pt
}

// RunScaling runs the strong-scaling sweep behind Figs. 4 and 5: the
// distributed RCM on every suite analog across the hybrid core
// configurations.
func RunScaling(cfg Config) []ScaleSeries {
	configs := cfg.filterConfigs(HybridConfigs())
	var out []ScaleSeries
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		s := ScaleSeries{Name: e.Name, N: a.N, NNZ: a.NNZ()}
		for _, cc := range configs {
			s.Points = append(s.Points, runScalePoint(a, cc, cfg.model(), core.SortFull, cfg.optionsFor(a)))
		}
		out = append(out, s)
	}
	return out
}

// PrintFig4 renders the runtime-breakdown view of a scaling sweep (Fig. 4).
func PrintFig4(cfg Config, series []ScaleSeries) {
	w := cfg.out()
	for _, s := range series {
		fmt.Fprintf(w, "Fig 4: %s (n=%d nnz=%d) runtime breakdown, modelled seconds\n", s.Name, s.N, s.NNZ)
		fmt.Fprintf(w, "%7s  %11s %11s %11s %11s %11s %11s %9s\n",
			"cores", "peri-spmspv", "peri-other", "ord-spmspv", "ord-sort", "ord-other", "total", "speedup")
		hr(w, 100)
		base := 0.0
		for i, p := range s.Points {
			if i == 0 {
				base = p.Total
			}
			sp := 0.0
			if p.Total > 0 {
				sp = base / p.Total
			}
			fmt.Fprintf(w, "%7d  %11.4f %11.4f %11.4f %11.4f %11.4f %11.4f %8.1fx\n",
				p.Config.Cores, p.PeripheralSpMSpV, p.PeripheralOther,
				p.OrderingSpMSpV, p.OrderingSort, p.OrderingOther, p.Total, sp)
		}
		fmt.Fprintln(w)
	}
}

// PrintFig5 renders the SpMSpV computation-vs-communication view (Fig. 5).
func PrintFig5(cfg Config, series []ScaleSeries) {
	w := cfg.out()
	for _, s := range series {
		fmt.Fprintf(w, "Fig 5: %s SpMSpV computation vs communication, modelled seconds\n", s.Name)
		fmt.Fprintf(w, "%7s  %13s %13s %9s\n", "cores", "computation", "communication", "comm/tot")
		hr(w, 50)
		for _, p := range s.Points {
			tot := p.SpMSpVComp + p.SpMSpVComm
			frac := 0.0
			if tot > 0 {
				frac = p.SpMSpVComm / tot
			}
			fmt.Fprintf(w, "%7d  %13.4f %13.4f %8.1f%%\n", p.Config.Cores, p.SpMSpVComp, p.SpMSpVComm, 100*frac)
		}
		fmt.Fprintln(w)
	}
}

// RunFig6 regenerates Fig. 6: the flat-MPI (one thread per process)
// breakdown for the ldoor analog, to be contrasted with the hybrid run of
// Fig. 4 — the flat version pays the α·p collective latencies with a 6×
// larger process count at equal core count.
func RunFig6(cfg Config) ScaleSeries {
	e := graphgen.SuiteByName("ldoor")
	a := e.Build(cfg.scale())
	s := ScaleSeries{Name: "ldoor (flat MPI)", N: a.N, NNZ: a.NNZ()}
	for _, cc := range cfg.filterConfigs(FlatConfigs()) {
		s.Points = append(s.Points, runScalePoint(a, cc, cfg.model(), core.SortFull, cfg.optionsFor(a)))
	}
	w := cfg.out()
	fmt.Fprintf(w, "Fig 6: ldoor analog, flat MPI (t=1), modelled seconds\n")
	fmt.Fprintf(w, "%7s  %11s %11s %11s %11s %11s %11s\n",
		"cores", "peri-spmspv", "peri-other", "ord-spmspv", "ord-sort", "ord-other", "total")
	hr(w, 92)
	for _, p := range s.Points {
		fmt.Fprintf(w, "%7d  %11.4f %11.4f %11.4f %11.4f %11.4f %11.4f\n",
			p.Config.Cores, p.PeripheralSpMSpV, p.PeripheralOther,
			p.OrderingSpMSpV, p.OrderingSort, p.OrderingOther, p.Total)
	}
	fmt.Fprintln(w)
	return s
}
