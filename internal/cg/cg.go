// Package cg implements the iterative-solver substrate behind Fig. 1 of the
// paper: a preconditioned conjugate gradient solver with a block-Jacobi
// preconditioner using ILU(0) inside each block — the PETSc configuration
// the paper measures (block Jacobi with one block per process, PETSc's
// default ILU(0) sub-preconditioner).
//
// The package also provides the distributed-CG cost model that regenerates
// the figure: the iteration count comes from an actual PCG run with one
// block per simulated process, and the per-iteration communication volume is
// derived from the matrix's real ghost-exchange pattern under a 1D row-block
// partition. Both effects the paper attributes to RCM — stronger
// preconditioner blocks and near-neighbour communication — emerge
// mechanically from the ordering.
package cg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/spmat"
)

// SpMV computes y = A·x for a matrix with values.
func SpMV(a *spmat.CSR, x, y []float64) {
	if !a.HasValues() {
		panic("cg: SpMV requires numeric values")
	}
	for i := 0; i < a.N; i++ {
		s := 0.0
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			s += vals[k] * x[j]
		}
		y[i] = s
	}
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Preconditioner applies z = M⁻¹ r.
type Preconditioner interface {
	Apply(r, z []float64)
}

// Identity is the unpreconditioned case.
type Identity struct{}

// Apply copies r to z.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// ILU0 is an incomplete LU factorization with zero fill-in: L and U share
// the sparsity pattern of A. The factor is stored in one CSR copy, with L's
// unit diagonal implicit.
type ILU0 struct {
	n      int
	rowPtr []int
	col    []int
	val    []float64
	diag   []int // index of the diagonal entry in each row
}

// FactorILU0 computes the ILU(0) factorization of a. It fails if a diagonal
// entry is missing or a pivot becomes zero.
func FactorILU0(a *spmat.CSR) (*ILU0, error) {
	if !a.HasValues() {
		return nil, errors.New("cg: ILU0 requires numeric values")
	}
	n := a.N
	f := &ILU0{
		n:      n,
		rowPtr: append([]int(nil), a.RowPtr...),
		col:    append([]int(nil), a.Col...),
		val:    append([]float64(nil), a.Val...),
		diag:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.diag[i] = -1
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			if f.col[k] == i {
				f.diag[i] = k
				break
			}
		}
		if f.diag[i] < 0 {
			return nil, fmt.Errorf("cg: ILU0: missing diagonal in row %d", i)
		}
	}
	// IKJ variant: eliminate row i against all previous rows k present in
	// the row's lower part.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			pos[f.col[k]] = k
		}
		for k := lo; k < hi && f.col[k] < i; k++ {
			kc := f.col[k]
			piv := f.val[f.diag[kc]]
			if piv == 0 {
				return nil, fmt.Errorf("cg: ILU0: zero pivot in row %d", kc)
			}
			f.val[k] /= piv
			for kk := f.diag[kc] + 1; kk < f.rowPtr[kc+1]; kk++ {
				if p := pos[f.col[kk]]; p >= 0 {
					f.val[p] -= f.val[k] * f.val[kk]
				}
			}
		}
		for k := lo; k < hi; k++ {
			pos[f.col[k]] = -1
		}
		if f.val[f.diag[i]] == 0 {
			return nil, fmt.Errorf("cg: ILU0: zero pivot in row %d", i)
		}
	}
	return f, nil
}

// Apply solves LUz = r.
func (f *ILU0) Apply(r, z []float64) {
	// Forward solve Ly = r (unit diagonal).
	for i := 0; i < f.n; i++ {
		s := r[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.val[k] * z[f.col[k]]
		}
		z[i] = s
	}
	// Backward solve Uz = y.
	for i := f.n - 1; i >= 0; i-- {
		s := z[i]
		for k := f.diag[i] + 1; k < f.rowPtr[i+1]; k++ {
			s -= f.val[k] * z[f.col[k]]
		}
		z[i] = s / f.val[f.diag[i]]
	}
}

// NNZ returns the number of stored factor entries.
func (f *ILU0) NNZ() int { return len(f.col) }

// BlockJacobi is the block-Jacobi preconditioner: the matrix's contiguous
// principal diagonal blocks, each factored with ILU(0) and solved
// independently — exactly one block per process in the paper's PETSc runs.
type BlockJacobi struct {
	starts  []int // len nblocks+1
	factors []*ILU0
}

// NewBlockJacobi builds the preconditioner with nblocks contiguous row
// blocks.
func NewBlockJacobi(a *spmat.CSR, nblocks int) (*BlockJacobi, error) {
	if nblocks < 1 {
		nblocks = 1
	}
	if nblocks > a.N && a.N > 0 {
		nblocks = a.N
	}
	bj := &BlockJacobi{starts: make([]int, nblocks+1)}
	for b := 0; b <= nblocks; b++ {
		bj.starts[b] = b * a.N / nblocks
	}
	for b := 0; b < nblocks; b++ {
		lo, hi := bj.starts[b], bj.starts[b+1]
		var es []spmat.Coord
		for i := lo; i < hi; i++ {
			vals := a.RowVals(i)
			for k, j := range a.Row(i) {
				if j >= lo && j < hi {
					es = append(es, spmat.Coord{Row: i - lo, Col: j - lo, Val: vals[k]})
				}
			}
		}
		sub := spmat.FromCoords(hi-lo, es, false)
		f, err := FactorILU0(sub)
		if err != nil {
			return nil, fmt.Errorf("cg: block %d: %w", b, err)
		}
		bj.factors = append(bj.factors, f)
	}
	return bj, nil
}

// Apply solves each diagonal block independently.
func (bj *BlockJacobi) Apply(r, z []float64) {
	for b, f := range bj.factors {
		lo, hi := bj.starts[b], bj.starts[b+1]
		f.Apply(r[lo:hi], z[lo:hi])
	}
}

// Blocks returns the number of blocks.
func (bj *BlockJacobi) Blocks() int { return len(bj.factors) }

// Result reports a PCG solve.
type Result struct {
	// Iterations is the number of CG iterations performed.
	Iterations int
	// Converged reports whether the relative residual dropped below tol.
	Converged bool
	// FinalRel is the final relative residual ‖r‖/‖b‖.
	FinalRel float64
	// Residuals traces ‖r‖ at every iteration (including iteration 0).
	Residuals []float64
}

// PCG solves Ax = b with the preconditioned conjugate gradient method,
// starting from x = 0, stopping at relative residual tol or maxIter.
func PCG(a *spmat.CSR, b []float64, m Preconditioner, tol float64, maxIter int) ([]float64, Result) {
	n := a.N
	if len(b) != n {
		panic(fmt.Sprintf("cg: rhs length %d for n=%d", len(b), n))
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	bnorm := Norm2(b)
	res := Result{}
	if bnorm == 0 {
		res.Converged = true
		return x, res
	}
	m.Apply(r, z)
	copy(p, z)
	rz := Dot(r, z)
	res.Residuals = append(res.Residuals, Norm2(r))
	for it := 0; it < maxIter; it++ {
		SpMV(a, p, ap)
		pap := Dot(p, ap)
		if pap == 0 {
			break
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		res.Iterations = it + 1
		rnorm := Norm2(r)
		res.Residuals = append(res.Residuals, rnorm)
		res.FinalRel = rnorm / bnorm
		if res.FinalRel < tol {
			res.Converged = true
			break
		}
		m.Apply(r, z)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, res
}
