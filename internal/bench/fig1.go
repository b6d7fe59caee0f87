package bench

import (
	"fmt"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/tally"
)

// Fig1Point is one bar pair of Fig. 1: the distributed CG solve at a core
// count under the natural and RCM orderings.
type Fig1Point struct {
	Cores   int
	Natural *cg.DistResult
	RCM     *cg.DistResult
}

// Fig1Result is the full Fig. 1 series on the thermal2 analog.
type Fig1Result struct {
	N, NNZ             int
	BWNatural, BWRCM   int
	OrderingComponents int
	Points             []Fig1Point
}

// modeledSeconds is a solve's modelled time, the height of a Fig. 1 bar.
func modeledSeconds(r *cg.DistResult) float64 { return tally.Seconds(r.Breakdown.TotalNs()) }

// RunFig1 regenerates Fig. 1: the time to solve the thermal2 analog with CG
// and a block-Jacobi/ILU(0) preconditioner, natural (scrambled) ordering vs
// RCM ordering, at 1–256 cores. Every point runs cg.DistributedPCG on the
// simulated runtime, one block per process. The paper's observation — RCM
// helps more at 256 cores than at 1 — comes from the halo exchange, whose
// volume and neighbour count collapse to the band overlap under RCM, and
// from the per-block preconditioner strength.
func RunFig1(cfg Config) (*Fig1Result, error) {
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
	// A deterministic non-trivial right-hand side: the all-ones vector is
	// degenerate for graph Laplacians, whose row sums are constant.
	b := make([]float64, a.N)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = float64(int64(s>>11))/float64(1<<52) - 1
	}
	const tol, maxIter = 1e-6, 20000
	for _, c := range cores {
		nat, err := cg.DistributedPCG(a, b, c, cfg.model(), tol, maxIter)
		if err != nil {
			return nil, fmt.Errorf("fig1: natural at %d cores: %w", c, err)
		}
		ord, err := cg.DistributedPCG(rcm, b, c, cfg.model(), tol, maxIter)
		if err != nil {
			return nil, fmt.Errorf("fig1: rcm at %d cores: %w", c, err)
		}
		res.Points = append(res.Points, Fig1Point{Cores: c, Natural: nat, RCM: ord})
	}

	w := cfg.out()
	fmt.Fprintf(w, "Fig 1: CG + block Jacobi on thermal2 analog (n=%d, nnz=%d)\n", res.N, res.NNZ)
	fmt.Fprintf(w, "bandwidth: natural=%d  rcm=%d  (paper: 1,226,000 -> 795)\n", res.BWNatural, res.BWRCM)
	fmt.Fprintf(w, "%6s  %14s %8s  %14s %8s  %7s\n", "cores", "natural (s)", "iters", "rcm (s)", "iters", "speedup")
	hr(w, 68)
	for _, p := range res.Points {
		nat, ord := modeledSeconds(p.Natural), modeledSeconds(p.RCM)
		sp := 0.0
		if ord > 0 {
			sp = nat / ord
		}
		fmt.Fprintf(w, "%6d  %14.4f %8d  %14.4f %8d  %6.2fx\n",
			p.Cores, nat, p.Natural.Iterations, ord, p.RCM.Iterations, sp)
	}
	fmt.Fprintln(w)
	return res, nil
}
