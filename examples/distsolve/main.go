// DistSolve: the full distributed pipeline the paper motivates in §I — the
// matrix is already distributed, so the ordering must happen in place, and
// the reordered system is then solved in place too. This example runs the
// distributed RCM and the distributed PCG back to back on the simulated
// runtime and contrasts the halo traffic of the solve before and after the
// reordering.
package main

import (
	"fmt"
	"log"

	"repro/rcm"
)

func main() {
	a := rcm.Thermal2(6) // 50×50 scrambled thermal problem
	fmt.Printf("thermal2 analog: n=%d nnz=%d bandwidth=%d\n", a.N(), a.NNZ(), a.Bandwidth())

	// Step 1: order in place on a 4×4 process grid.
	p, res, err := rcm.OrderMatrix(a,
		rcm.WithBackend(rcm.Distributed),
		rcm.WithProcs(16),
		rcm.WithThreads(6))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed RCM on %d procs: bandwidth -> %d, modelled %.4f s\n",
		res.Procs, res.After.Bandwidth, res.Modeled.Seconds)

	// Step 2: solve on the same number of processes, before and after.
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64((i*31)%11) - 5
	}
	natural, err := rcm.SolveDistributedPCG(a, b, 16, 1e-6, 5000)
	if err != nil {
		log.Fatal(err)
	}
	ordered, err := rcm.SolveDistributedPCG(p, b, 16, 1e-6, 5000)
	if err != nil {
		log.Fatal(err)
	}
	report := func(name string, r *rcm.DistSolveResult) {
		fmt.Printf("%-8s %4d iterations, %.1e final rel, %5d halo words from %2d neighbours per SpMV, modelled %.4f s\n",
			name, r.Iterations, r.FinalRel, r.HaloWordsPerIter, r.HaloMsgsPerIter, r.Modeled.Seconds)
	}
	fmt.Println("\ndistributed PCG on 16 processes:")
	report("natural", natural)
	report("rcm", ordered)
	fmt.Printf("\nhalo per SpMV reduced %.1fx, time %.1fx\n",
		float64(natural.HaloWordsPerIter)/float64(ordered.HaloWordsPerIter),
		natural.Modeled.Seconds/ordered.Modeled.Seconds)
}
