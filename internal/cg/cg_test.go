package cg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/spmat"
)

func TestSpMVIdentityLike(t *testing.T) {
	a := spmat.FromCoords(3, []spmat.Coord{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3}, {Row: 2, Col: 2, Val: 4}, {Row: 0, Col: 2, Val: 1},
	}, false)
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	SpMV(a, x, y)
	want := []float64{3, 3, 4}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y = %v", y)
		}
	}
}

func TestSpMVPatternPanics(t *testing.T) {
	a := spmat.FromCoords(1, []spmat.Coord{{Row: 0, Col: 0, Val: 1}}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpMV(a, []float64{1}, []float64{0})
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("dot")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("norm")
	}
}

func TestILU0ExactOnTriangularCase(t *testing.T) {
	// On a matrix whose LU has no fill, ILU0 == LU and Apply solves
	// exactly. Tridiagonal matrices qualify.
	a := triDiag(20)
	f, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	want := randVec(20, 3)
	b := make([]float64, 20)
	SpMV(a, want, b)
	got := make([]float64, 20)
	f.Apply(b, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("solve error at %d: %g vs %g", i, got[i], want[i])
		}
	}
	if f.NNZ() != a.NNZ() {
		t.Errorf("factor nnz %d != %d (zero fill-in violated)", f.NNZ(), a.NNZ())
	}
}

func TestILU0MissingDiagonal(t *testing.T) {
	a := spmat.FromCoords(2, []spmat.Coord{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}}, false)
	if _, err := FactorILU0(a); err == nil {
		t.Fatal("expected missing-diagonal error")
	}
}

func TestILU0PatternRejected(t *testing.T) {
	a := spmat.FromCoords(1, []spmat.Coord{{Row: 0, Col: 0, Val: 1}}, true)
	if _, err := FactorILU0(a); err == nil {
		t.Fatal("expected error for pattern matrix")
	}
}

func TestILU0ZeroPivot(t *testing.T) {
	a := spmat.FromCoords(2, []spmat.Coord{
		{Row: 0, Col: 0, Val: 0}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
	}, false)
	if _, err := FactorILU0(a); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

func triDiag(n int) *spmat.CSR {
	var es []spmat.Coord
	for i := 0; i < n; i++ {
		es = append(es, spmat.Coord{Row: i, Col: i, Val: 4})
		if i+1 < n {
			es = append(es, spmat.Coord{Row: i, Col: i + 1, Val: -1}, spmat.Coord{Row: i + 1, Col: i, Val: -1})
		}
	}
	return spmat.FromCoords(n, es, false)
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestBlockJacobiBlockCountClamping(t *testing.T) {
	a := triDiag(10)
	bj, err := NewBlockJacobi(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bj.Blocks() != 10 {
		t.Errorf("blocks = %d", bj.Blocks())
	}
	bj2, err := NewBlockJacobi(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bj2.Blocks() != 1 {
		t.Errorf("blocks = %d", bj2.Blocks())
	}
	if bj2.FactorNNZ() != a.NNZ() {
		t.Errorf("single block factor nnz %d", bj2.FactorNNZ())
	}
}

func TestBlockJacobiOneBlockIsILU0(t *testing.T) {
	a := triDiag(16)
	bj, err := NewBlockJacobi(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := FactorILU0(a)
	r := randVec(16, 5)
	z1 := make([]float64, 16)
	z2 := make([]float64, 16)
	bj.Apply(r, z1)
	f.Apply(r, z2)
	for i := range z1 {
		if math.Abs(z1[i]-z2[i]) > 1e-12 {
			t.Fatalf("block=1 differs from ILU0 at %d", i)
		}
	}
}

func TestPCGSolvesLaplacian(t *testing.T) {
	a := graphgen.Grid2D(15, 15)
	n := a.N
	want := randVec(n, 7)
	b := make([]float64, n)
	SpMV(a, want, b)
	x, res := PCG(a, b, Identity{}, 1e-10, 2000)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("solution error at %d: %g vs %g", i, x[i], want[i])
		}
	}
	if res.FinalRel >= 1e-10 {
		t.Errorf("final rel %g", res.FinalRel)
	}
	if len(res.Residuals) != res.Iterations+1 {
		t.Errorf("residual trace length %d for %d iterations", len(res.Residuals), res.Iterations)
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a := triDiag(5)
	x, res := PCG(a, make([]float64, 5), Identity{}, 1e-8, 10)
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Error("nonzero solution for zero rhs")
		}
	}
}

func TestPCGWrongRHSLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PCG(triDiag(4), make([]float64, 3), Identity{}, 1e-8, 10)
}

func TestPreconditioningReducesIterations(t *testing.T) {
	a := graphgen.Grid2D(20, 20)
	b := randVec(a.N, 99)
	_, plain := PCG(a, b, Identity{}, 1e-8, 5000)
	bj, err := NewBlockJacobi(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, pre := PCG(a, b, bj, 1e-8, 5000)
	if !plain.Converged || !pre.Converged {
		t.Fatalf("convergence: plain=%v pre=%v", plain.Converged, pre.Converged)
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("block Jacobi did not help: %d vs %d", pre.Iterations, plain.Iterations)
	}
}

func TestRCMOrderingStrengthensBlockJacobi(t *testing.T) {
	// The iteration-count mechanism behind Fig. 1: with contiguous blocks
	// on a banded (RCM) ordering the preconditioner captures more of the
	// matrix than on a scrambled ordering.
	a := graphgen.Thermal2(15) // 20x20 scrambled grid
	ord := core.Sequential(a)
	rcm := a.Permute(ord.Perm)
	b := randVec(a.N, 99)
	iters := func(m *spmat.CSR) int {
		bj, err := NewBlockJacobi(m, 8)
		var res Result
		if err != nil {
			_, res = PCG(m, b, Identity{}, 1e-8, 10000)
		} else {
			_, res = PCG(m, b, bj, 1e-8, 10000)
		}
		if !res.Converged {
			t.Fatalf("no convergence: %+v", res)
		}
		return res.Iterations
	}
	natural := iters(a)
	ordered := iters(rcm)
	if ordered >= natural {
		t.Errorf("RCM ordering did not reduce iterations: %d vs %d", ordered, natural)
	}
}

func TestQuickILU0SolveIsExactWhenNoFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := triDiag(n)
		fac, err := FactorILU0(a)
		if err != nil {
			return false
		}
		want := randVec(n, seed)
		b := make([]float64, n)
		SpMV(a, want, b)
		got := make([]float64, n)
		fac.Apply(b, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
