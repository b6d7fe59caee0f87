package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// SizePoint is one (matrix size, core count) cell of the size-sensitivity
// sweep.
type SizePoint struct {
	Scale  int
	N, NNZ int
	Points []ScalePoint
	// BestCores is the core count with the lowest modelled total time:
	// the strong-scaling sweet spot.
	BestCores int
}

// RunSizeSensitivity reruns the ldoor analog at scales 6, 4 and 2 and
// reports where each size stops scaling. This regenerates the paper's §V-D
// observation in a controlled way: "the largest two matrices continue to
// scale on more than 4K cores whereas smaller problems do not scale beyond
// 1K cores" — i.e. the scaling limit moves right with the problem size. It
// also documents why the downscaled analogs hit their communication walls
// at proportionally lower core counts than the full-size matrices in the
// paper.
func RunSizeSensitivity(cfg Config) []SizePoint {
	e := graphgen.SuiteByName("ldoor")
	var out []SizePoint
	for _, s := range []int{6, 4, 2} {
		a := e.Build(s)
		sp := SizePoint{Scale: s, N: a.N, NNZ: a.NNZ()}
		best := -1.0
		for _, cc := range cfg.filterConfigs(HybridConfigs()) {
			pt := runScalePoint(a, cc, cfg.model(), core.SortFull, cfg.optionsFor(a))
			sp.Points = append(sp.Points, pt)
			if best < 0 || pt.Total < best {
				best = pt.Total
				sp.BestCores = cc.Cores
			}
		}
		out = append(out, sp)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Size sensitivity: %s analog at several sizes (modelled seconds)\n", e.Name)
	fmt.Fprintf(w, "%7s %9s %10s | per-core totals | %9s\n", "scale", "n", "nnz", "best@cores")
	hr(w, 90)
	for _, sp := range out {
		fmt.Fprintf(w, "%7d %9d %10d | ", sp.Scale, sp.N, sp.NNZ)
		for _, p := range sp.Points {
			fmt.Fprintf(w, "%d:%.4f ", p.Config.Cores, p.Total)
		}
		fmt.Fprintf(w, "| %9d\n", sp.BestCores)
	}
	fmt.Fprintln(w)
	return out
}
