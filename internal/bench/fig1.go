package bench

import (
	"fmt"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/graphgen"
)

// Fig1Point is one bar pair of Fig. 1: CG solve cost at a core count under
// the natural and RCM orderings.
type Fig1Point struct {
	Cores   int
	Natural cg.DistStats
	RCM     cg.DistStats
}

// Fig1Result is the full Fig. 1 series on the thermal2 analog.
type Fig1Result struct {
	N, NNZ             int
	BWNatural, BWRCM   int
	OrderingComponents int
	Points             []Fig1Point
}

// RunFig1 regenerates Fig. 1: the time to solve the thermal2 analog with CG
// and a block-Jacobi/ILU(0) preconditioner, natural (scrambled) ordering vs
// RCM ordering, at 1–256 cores. The paper's observation — the benefit of
// RCM grows with the core count — comes from the ghost-exchange volume and
// the per-block preconditioner strength, both of which the model derives
// from the actual matrix.
func RunFig1(cfg Config) *Fig1Result {
	a := graphgen.Thermal2(cfg.scale())
	ord := core.Sequential(a)
	rcm := a.Permute(ord.Perm)

	res := &Fig1Result{
		N: a.N, NNZ: a.NNZ(),
		BWNatural: a.Bandwidth(), BWRCM: rcm.Bandwidth(),
		OrderingComponents: ord.Components,
	}
	cores := []int{1, 4, 16, 64, 256}
	if cfg.MaxCores > 0 {
		var kept []int
		for _, c := range cores {
			if c <= cfg.MaxCores {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			kept = cores[:1]
		}
		cores = kept
	}
	const tol, maxIter = 1e-6, 20000
	for _, c := range cores {
		res.Points = append(res.Points, Fig1Point{
			Cores:   c,
			Natural: cg.ModelDistributedCG(a, c, cfg.model(), tol, maxIter),
			RCM:     cg.ModelDistributedCG(rcm, c, cfg.model(), tol, maxIter),
		})
	}

	w := cfg.out()
	fmt.Fprintf(w, "Fig 1: CG + block Jacobi on thermal2 analog (n=%d, nnz=%d)\n", res.N, res.NNZ)
	fmt.Fprintf(w, "bandwidth: natural=%d  rcm=%d  (paper: 1,226,000 -> 795)\n", res.BWNatural, res.BWRCM)
	fmt.Fprintf(w, "%6s  %14s %8s  %14s %8s  %7s\n", "cores", "natural (s)", "iters", "rcm (s)", "iters", "speedup")
	hr(w, 68)
	for _, p := range res.Points {
		sp := 0.0
		if p.RCM.ModeledSeconds > 0 {
			sp = p.Natural.ModeledSeconds / p.RCM.ModeledSeconds
		}
		fmt.Fprintf(w, "%6d  %14.4f %8d  %14.4f %8d  %6.2fx\n",
			p.Cores, p.Natural.ModeledSeconds, p.Natural.Iterations,
			p.RCM.ModeledSeconds, p.RCM.Iterations, sp)
	}
	fmt.Fprintln(w)
	return res
}
