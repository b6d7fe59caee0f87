package cg

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/spmat"
)

func TestDistributedPCGMatchesSequentialAtP1(t *testing.T) {
	a := graphgen.Grid2D(12, 10)
	b := randVec(a.N, 21)
	bj, err := NewBlockJacobi(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	xSeq, resSeq := PCG(a, b, bj, 1e-9, 2000)
	dist, err := DistributedPCG(a, b, 1, nil, 1e-9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Converged || !resSeq.Converged {
		t.Fatalf("convergence: seq=%v dist=%v", resSeq.Converged, dist.Converged)
	}
	if dist.Iterations != resSeq.Iterations {
		t.Errorf("iterations %d vs %d at p=1", dist.Iterations, resSeq.Iterations)
	}
	for i := range xSeq {
		if math.Abs(dist.X[i]-xSeq[i]) > 1e-7 {
			t.Fatalf("solution differs at %d: %g vs %g", i, dist.X[i], xSeq[i])
		}
	}
}

func TestDistributedPCGSolvesAcrossProcs(t *testing.T) {
	a := graphgen.Grid2D(14, 9)
	want := randVec(a.N, 5)
	b := make([]float64, a.N)
	SpMV(a, want, b)
	for _, p := range []int{2, 3, 5, 8} {
		dist, err := DistributedPCG(a, b, p, nil, 1e-10, 5000)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !dist.Converged {
			t.Fatalf("p=%d: no convergence (%+v)", p, dist.Result)
		}
		for i := range want {
			if math.Abs(dist.X[i]-want[i]) > 1e-6 {
				t.Fatalf("p=%d: solution error at %d: %g vs %g", p, i, dist.X[i], want[i])
			}
		}
		if dist.Breakdown.Ranks != p {
			t.Errorf("p=%d: breakdown has %d ranks", p, dist.Breakdown.Ranks)
		}
		if p > 1 && dist.Breakdown.Words == 0 {
			t.Errorf("p=%d: no halo traffic recorded", p)
		}
	}
}

func TestDistributedPCGBlockCountMatchesSequentialBlockJacobi(t *testing.T) {
	// The distributed preconditioner (one ILU(0) block per process) is
	// exactly sequential block Jacobi with p blocks, so iteration counts
	// agree up to dot-product rounding.
	a := graphgen.Grid2D(13, 13)
	b := randVec(a.N, 9)
	const p = 4
	bj, err := NewBlockJacobi(a, p)
	if err != nil {
		t.Fatal(err)
	}
	_, seq := PCG(a, b, bj, 1e-8, 4000)
	dist, err := DistributedPCG(a, b, p, nil, 1e-8, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if d := dist.Iterations - seq.Iterations; d < -2 || d > 2 {
		t.Errorf("iterations %d vs %d", dist.Iterations, seq.Iterations)
	}
}

func TestDistributedPCGRCMReducesHaloTraffic(t *testing.T) {
	// Fig. 1's mechanism on the executed solver: RCM shrinks each rank's
	// halo to the band overlap with its neighbours, so fewer words and
	// fewer neighbours per SpMV.
	a := graphgen.Thermal2(12)
	rcm := a.Permute(core.Sequential(a).Perm)
	b := randVec(a.N, 3)
	const p = 8
	nat, err := DistributedPCG(a, b, p, nil, 1e-6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := DistributedPCG(rcm, b, p, nil, 1e-6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !nat.Converged || !ord.Converged {
		t.Fatalf("convergence: natural=%v rcm=%v", nat.Converged, ord.Converged)
	}
	if ord.HaloWords >= nat.HaloWords {
		t.Errorf("RCM halo words/iter %d not below natural %d", ord.HaloWords, nat.HaloWords)
	}
	if ord.HaloMsgs >= nat.HaloMsgs {
		t.Errorf("RCM halo neighbours %d not below natural %d", ord.HaloMsgs, nat.HaloMsgs)
	}
	if ord.Iterations > nat.Iterations {
		t.Errorf("RCM iterations %d above natural %d", ord.Iterations, nat.Iterations)
	}
}

// Fig. 1's claim on the modelled time of the executed solve: at α per
// neighbour, RCM's smaller halo makes the solve cheaper at 16 processes,
// and one process has no halo to price.
func TestModelDistributedCGFavoursRCMAtScale(t *testing.T) {
	a := graphgen.Thermal2(10) // 30x30 scrambled grid
	rcm := a.Permute(core.Sequential(a).Perm)
	b := randVec(a.N, 3)
	nat, err := DistributedPCG(a, b, 16, nil, 1e-6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := DistributedPCG(rcm, b, 16, nil, 1e-6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !nat.Converged || !ord.Converged {
		t.Fatalf("convergence: natural=%v rcm=%v", nat.Converged, ord.Converged)
	}
	if o, n := ord.Breakdown.TotalNs(), nat.Breakdown.TotalNs(); o >= n {
		t.Errorf("RCM modelled time %g ns not below natural %g ns at p=16", o, n)
	}
	if ord.HaloWords >= nat.HaloWords {
		t.Errorf("RCM halo words/iter %d not below natural %d at p=16", ord.HaloWords, nat.HaloWords)
	}
	// One process: no halo.
	solo, err := DistributedPCG(rcm, b, 1, nil, 1e-6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if solo.HaloWords != 0 || solo.HaloMsgs != 0 || solo.Breakdown.Words != 0 {
		t.Errorf("p=1 has a halo: words=%d msgs=%d traffic=%d", solo.HaloWords, solo.HaloMsgs, solo.Breakdown.Words)
	}
}

// TestLocalSpMVMatchesGlobalSpMV checks the renumbered block columns: each
// rank's localSpMV over its slice of x and the halo it receives must equal
// its rows of the global SpMV bit for bit, because both sum the same
// products in the same order.
func TestLocalSpMVMatchesGlobalSpMV(t *testing.T) {
	a := graphgen.Thermal2(12) // scrambled grid: ghosts from many owners
	x := randVec(a.N, 4)
	want := make([]float64, a.N)
	SpMV(a, x, want)
	for _, p := range []int{2, 3, 5} {
		got := make([]float64, a.N)
		comm.Run(p, nil, func(c *comm.Comm) {
			r := newCGRank(c, a)
			if r.err != nil {
				panic(r.err)
			}
			mine := x[r.lo:r.hi]
			r.localSpMV(mine, r.haloExchange(mine), got[r.lo:r.hi])
		})
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("p=%d: row %d = %v, global SpMV %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestDistributedPCGZeroRHS(t *testing.T) {
	a := graphgen.Grid2D(6, 6)
	dist, err := DistributedPCG(a, make([]float64, a.N), 4, nil, 1e-8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Converged || dist.Iterations != 0 {
		t.Errorf("zero rhs: %+v", dist.Result)
	}
}

func TestDistributedPCGErrors(t *testing.T) {
	pattern := spmat.FromCoords(2, []spmat.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}}, true)
	if _, err := DistributedPCG(pattern, []float64{1, 1}, 2, nil, 1e-8, 10); err == nil {
		t.Error("pattern matrix accepted")
	}
	a := graphgen.Grid2D(4, 4)
	if _, err := DistributedPCG(a, make([]float64, 3), 2, nil, 1e-8, 10); err == nil {
		t.Error("wrong rhs length accepted")
	}
	// Missing diagonal in one block: every rank must agree on failure.
	bad := spmat.FromCoords(4, []spmat.Coord{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	}, false)
	if _, err := DistributedPCG(bad, make([]float64, 4), 2, nil, 1e-8, 10); err == nil {
		t.Error("singular block accepted")
	}
}

func TestDistributedPCGMoreProcsThanRows(t *testing.T) {
	a := graphgen.Grid2D(3, 2)
	b := randVec(a.N, 8)
	dist, err := DistributedPCG(a, b, 50, nil, 1e-9, 500)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Procs != a.N {
		t.Errorf("procs clamped to %d, want %d", dist.Procs, a.N)
	}
	if !dist.Converged {
		t.Error("no convergence")
	}
}

// Fewer than one process runs the solve on one.
func TestModelDistributedCGCoresClamped(t *testing.T) {
	a := triDiag(12)
	b := randVec(a.N, 8)
	for _, procs := range []int{0, -3} {
		dist, err := DistributedPCG(a, b, procs, nil, 1e-8, 100)
		if err != nil {
			t.Fatal(err)
		}
		if dist.Procs != 1 {
			t.Errorf("procs %d clamped to %d, want 1", procs, dist.Procs)
		}
		if !dist.Converged {
			t.Errorf("procs %d: no convergence", procs)
		}
	}
}

// BenchmarkDistributedPCG measures the distributed CG solver on the
// simulated runtime (the Fig. 1 configuration).
func BenchmarkDistributedPCG(b *testing.B) {
	a := graphgen.Thermal2(8)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := DistributedPCG(a, rhs, 8, nil, 1e-6, 4000)
		if err != nil || !res.Converged {
			b.Fatalf("solve failed: %v %+v", err, res)
		}
	}
}
