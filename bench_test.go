package repro

// One benchmark per table/figure of the paper, plus microbenchmarks of the
// primitives. The figure benchmarks run the same harness code as
// cmd/rcmbench at a reduced scale so `go test -bench=. -benchmem` finishes
// in minutes; use the CLI for full-scale sweeps. Set -v to see the rendered
// tables via -bench with the `benchtables` build note in README.md.

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/graphgen"
	"repro/internal/grid"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// benchCfg returns the harness configuration used by the figure benchmarks.
func benchCfg(scale, maxCores int) bench.Config {
	return bench.Config{Scale: scale, MaxCores: maxCores, Out: io.Discard}
}

// BenchmarkFig1 regenerates Fig. 1: CG + block-Jacobi solve cost, natural
// vs RCM ordering, across core counts.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bench.RunFig1(benchCfg(4, 0))
		if res.BWRCM >= res.BWNatural {
			b.Fatal("RCM did not reduce bandwidth")
		}
	}
}

// BenchmarkFig3MatrixSuite regenerates the Fig. 3 suite table.
func BenchmarkFig3MatrixSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunFig3(benchCfg(4, 0))
		if len(rows) != 9 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkTable2 regenerates Table II: shared-memory RCM (measured) vs
// distributed RCM (modelled) on a single node.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunTable2(benchCfg(4, 0))
		if len(rows) != 9 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFig4 regenerates the Fig. 4 strong-scaling breakdown (capped at
// 216 cores at benchmark scale; the CLI runs the full 4056).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := bench.RunScaling(benchCfg(4, 216), bench.HybridConfigs())
		if len(series) != 9 {
			b.Fatalf("%d series", len(series))
		}
	}
}

// BenchmarkFig5 regenerates the Fig. 5 SpMSpV comp/comm split (same runs as
// Fig. 4, different view; benchmarked separately as the paper reports it
// separately).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := bench.RunScaling(benchCfg(4, 216), bench.HybridConfigs())
		for _, s := range series {
			for _, p := range s.Points {
				if p.SpMSpVComp+p.SpMSpVComm <= 0 {
					b.Fatal("empty SpMSpV split")
				}
			}
		}
	}
}

// BenchmarkFig6 regenerates the Fig. 6 flat-MPI breakdown for ldoor.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.RunFig6(benchCfg(4, 256))
		if len(s.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkAblationSort measures the three SORTPERM strategies.
func BenchmarkAblationSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunAblationSort(benchCfg(5, 0), 16)
	}
}

// BenchmarkAblationSemiring measures quality spread under randomized
// tie-breaking.
func BenchmarkAblationSemiring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunAblationSemiring(benchCfg(5, 0), 3)
	}
}

// BenchmarkAblationHybrid sweeps threads/process at fixed cores.
func BenchmarkAblationHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunAblationHybrid(benchCfg(5, 144))
	}
}

// BenchmarkAblationLocalFormat compares the CSC and CSR-scan local kernels.
func BenchmarkAblationLocalFormat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunAblationLocalFormat(benchCfg(5, 0))
	}
}

// BenchmarkQualityVsConcurrency verifies the §I quality claim.
func BenchmarkQualityVsConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunQuality(benchCfg(5, 0), []int{1, 4, 16})
		for _, r := range rows {
			if !r.Identical {
				b.Fatalf("%s: quality varies with concurrency", r.Name)
			}
		}
	}
}

// BenchmarkSizeSensitivity regenerates the scaling-limit-vs-size sweep.
func BenchmarkSizeSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunSizeSensitivity(benchCfg(0, 216), "ldoor", []int{8, 6, 4})
	}
}

// BenchmarkSloanComparison runs the RCM-vs-Sloan extension experiment.
func BenchmarkSloanComparison(b *testing.B) {
	cfg := benchCfg(5, 0)
	cfg.Matrices = []string{"ldoor", "Serena", "nlpkkt240"}
	for i := 0; i < b.N; i++ {
		bench.RunSloanComparison(cfg)
	}
}

// BenchmarkAblationDCSC measures CSC vs DCSC block storage across grids.
func BenchmarkAblationDCSC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunAblationDCSC(benchCfg(4, 676))
		last := rows[len(rows)-1]
		if last.DCSCWords >= last.CSCWords {
			b.Fatal("DCSC did not save memory on hypersparse blocks")
		}
	}
}

// BenchmarkDistributedPCG measures the actual distributed CG solver on the
// simulated runtime (the Fig. 1 configuration).
func BenchmarkDistributedPCG(b *testing.B) {
	a := graphgen.Thermal2(8)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cg.DistributedPCG(a, rhs, 8, nil, 1e-6, 4000)
		if err != nil || !res.Converged {
			b.Fatalf("solve failed: %v %+v", err, res)
		}
	}
}

// --- Microbenchmarks of the primitives -----------------------------------

func benchmarkMatrix() *spmat.CSR {
	return graphgen.SuiteByName("Serena").Build(3)
}

// BenchmarkSequentialRCM measures the classic queue-based RCM.
func BenchmarkSequentialRCM(b *testing.B) {
	a := benchmarkMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Sequential(a)
	}
}

// BenchmarkAlgebraicRCM measures the sequential matrix-algebraic RCM.
func BenchmarkAlgebraicRCM(b *testing.B) {
	a := benchmarkMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Algebraic(a)
	}
}

// BenchmarkSharedRCM measures the SpMP-style shared-memory RCM.
func BenchmarkSharedRCM(b *testing.B) {
	a := benchmarkMatrix()
	for _, t := range []int{1, 2} {
		b.Run(map[int]string{1: "t1", 2: "t2"}[t], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Shared(a, t)
			}
		})
	}
}

// BenchmarkDistributedRCM measures the full distributed algorithm on the
// simulated runtime at several grid sizes (wall time of the simulation, not
// modelled time).
func BenchmarkDistributedRCM(b *testing.B) {
	a := benchmarkMatrix()
	for _, p := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "p1", 4: "p4", 16: "p16"}[p], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Distributed(a, core.DistOptions{Procs: p})
			}
		})
	}
}

// BenchmarkSpMSpV measures one distributed SpMSpV over (select2nd, min)
// with a mid-size frontier on a 2×2 grid.
func BenchmarkSpMSpV(b *testing.B) {
	a := benchmarkMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.Run(4, nil, func(c *comm.Comm) {
			d := grid.NewDist(grid.Square(c), a.N)
			m := distmat.NewMat(d, a)
			x := distmat.NewSpV(d)
			for g := x.Lo; g < x.Hi; g += 16 {
				x.Loc.Append(g, int64(g))
			}
			distmat.SpMSpV(m, x, semiring.Select2ndMin)
		})
	}
}

// BenchmarkSequentialBFS isolates the BFS substrate.
func BenchmarkSequentialBFS(b *testing.B) {
	a := benchmarkMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BFS(0)
	}
}

// BenchmarkPermute measures PAPᵀ application.
func BenchmarkPermute(b *testing.B) {
	a := benchmarkMatrix()
	perm := core.Sequential(a).Perm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Permute(perm)
	}
}
