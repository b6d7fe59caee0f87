// CGSolve: the Fig. 1 scenario end to end. Solve a scrambled ("natural"
// ordering) 2D thermal problem with conjugate gradients and a block-Jacobi
// preconditioner, then solve the RCM-reordered system, and compare both the
// real iteration counts and the distributed solve's modelled times as the
// core count grows.
package main

import (
	"fmt"
	"log"

	"repro/rcm"
)

func main() {
	a := rcm.Thermal2(4) // 75×75 grid, scrambled
	p, res, err := rcm.OrderMatrix(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("thermal2 analog: n=%d nnz=%d\n", a.N(), a.NNZ())
	fmt.Printf("bandwidth natural=%d rcm=%d\n\n", res.Before.Bandwidth, res.After.Bandwidth)

	// A real single-node solve with 8 preconditioner blocks: RCM makes
	// the contiguous blocks meaningful subdomains, so CG needs fewer
	// iterations.
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	solve := func(name string, m *rcm.Matrix) {
		bj, err := rcm.NewBlockJacobi(m, 8)
		if err != nil {
			fmt.Printf("%-8s ILU(0) failed: %v\n", name, err)
			return
		}
		_, sres, err := rcm.SolvePCG(m, b, bj, 1e-8, 10000)
		if err != nil {
			fmt.Printf("%-8s solve failed: %v\n", name, err)
			return
		}
		fmt.Printf("%-8s %4d CG iterations (converged=%v, final rel %.2e)\n",
			name, sres.Iterations, sres.Converged, sres.FinalRel)
	}
	solve("natural", a)
	solve("rcm", p)

	// The distributed solve on the simulated runtime at growing core
	// counts, one block per process (Fig. 1); times are modelled.
	fmt.Printf("\n%6s %14s %14s %9s\n", "cores", "natural (s)", "rcm (s)", "speedup")
	for _, cores := range []int{1, 4, 16, 64, 256} {
		nat, err := rcm.SolveDistributedPCG(a, b, cores, 1e-6, 20000)
		if err != nil {
			log.Fatal(err)
		}
		ord, err := rcm.SolveDistributedPCG(p, b, cores, 1e-6, 20000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %14.4f %14.4f %8.2fx\n",
			cores, nat.Modeled.Seconds, ord.Modeled.Seconds,
			nat.Modeled.Seconds/ord.Modeled.Seconds)
	}
}
