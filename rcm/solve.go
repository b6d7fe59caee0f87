package rcm

import (
	"fmt"

	"repro/internal/cg"
)

// The solvers below re-export package cg, the CG + block-Jacobi machinery
// of the paper's Fig. 1 motivation: RCM turns the contiguous row blocks of
// a 1D partition into meaningful subdomains, so the preconditioner gets
// stronger and the halo exchange collapses to the band overlap.

// Preconditioner applies an approximate inverse: z ≈ M⁻¹r. It is satisfied
// by the factorizations returned by NewBlockJacobi and NewILU0, and by any
// user implementation.
type Preconditioner interface {
	Apply(r, z []float64)
}

// IdentityPreconditioner is the no-op preconditioner (plain CG).
type IdentityPreconditioner struct{}

// Apply copies r into z.
func (IdentityPreconditioner) Apply(r, z []float64) { copy(z, r) }

// BlockJacobi is a block-Jacobi preconditioner with an ILU(0) factorization
// per contiguous row block — the PETSc default configuration the paper's
// Fig. 1 uses.
type BlockJacobi struct {
	bj *cg.BlockJacobi
}

// NewBlockJacobi factors nblocks contiguous row blocks of a. The matrix
// must carry numeric values.
func NewBlockJacobi(a *Matrix, nblocks int) (*BlockJacobi, error) {
	if a == nil || a.csr == nil {
		return nil, fmt.Errorf("rcm: nil matrix")
	}
	bj, err := cg.NewBlockJacobi(a.csr, nblocks)
	if err != nil {
		return nil, err
	}
	return &BlockJacobi{bj: bj}, nil
}

// Apply solves the block systems: z = M⁻¹r.
func (b *BlockJacobi) Apply(r, z []float64) { b.bj.Apply(r, z) }

// Blocks returns the number of blocks actually factored.
func (b *BlockJacobi) Blocks() int { return b.bj.Blocks() }

// ILU0 is an incomplete LU factorization with zero fill.
type ILU0 struct {
	f *cg.ILU0
}

// NewILU0 factors a without fill-in. The matrix must carry numeric values
// and have a zero-free diagonal.
func NewILU0(a *Matrix) (*ILU0, error) {
	if a == nil || a.csr == nil {
		return nil, fmt.Errorf("rcm: nil matrix")
	}
	f, err := cg.FactorILU0(a.csr)
	if err != nil {
		return nil, err
	}
	return &ILU0{f: f}, nil
}

// Apply performs the forward/backward triangular solves: z = (LU)⁻¹r.
func (f *ILU0) Apply(r, z []float64) { f.f.Apply(r, z) }

// SolveResult reports a PCG solve.
type SolveResult struct {
	// Iterations is the number of CG iterations performed.
	Iterations int
	// Converged reports whether the relative residual dropped below the
	// tolerance.
	Converged bool
	// FinalRel is the final relative residual ‖r‖/‖b‖.
	FinalRel float64
	// Residuals traces ‖r‖ at every iteration (including iteration 0).
	Residuals []float64
}

func newSolveResult(r cg.Result) SolveResult {
	return SolveResult{
		Iterations: r.Iterations,
		Converged:  r.Converged,
		FinalRel:   r.FinalRel,
		Residuals:  r.Residuals,
	}
}

// SolvePCG solves Ax = b with the preconditioned conjugate gradient
// method, starting from x = 0 and stopping at relative residual tol or
// maxIter. A nil preconditioner runs plain CG.
func SolvePCG(a *Matrix, b []float64, m Preconditioner, tol float64, maxIter int) ([]float64, SolveResult, error) {
	if a == nil || a.csr == nil {
		return nil, SolveResult{}, fmt.Errorf("rcm: nil matrix")
	}
	if !a.csr.HasValues() {
		return nil, SolveResult{}, fmt.Errorf("rcm: PCG requires numeric values")
	}
	if len(b) != a.csr.N {
		return nil, SolveResult{}, fmt.Errorf("rcm: rhs length %d for n=%d", len(b), a.csr.N)
	}
	var prec cg.Preconditioner = cg.Identity{}
	if m != nil {
		prec = precAdapter{m}
	}
	x, res := cg.PCG(a.csr, b, prec, tol, maxIter)
	return x, newSolveResult(res), nil
}

// precAdapter bridges the public interface to the internal one.
type precAdapter struct{ m Preconditioner }

func (p precAdapter) Apply(r, z []float64) { p.m.Apply(r, z) }

// DistSolveResult reports a distributed PCG solve executed on the
// simulated bulk-synchronous runtime.
type DistSolveResult struct {
	SolveResult
	// X is the assembled solution.
	X []float64
	// Procs is the number of simulated processes.
	Procs int
	// Modeled is the BSP cost of the run: modelled time and real
	// (counted) communication volume.
	Modeled *Breakdown
	// HaloWordsPerIter and HaloMsgsPerIter bound the halo exchange of one
	// SpMV: the most ghost entries (8-byte words) any process receives and
	// the most neighbours it receives them from.
	HaloWordsPerIter, HaloMsgsPerIter int64
}

// SolveDistributedPCG solves Ax = b with preconditioned CG on the
// simulated runtime: a 1D row-block partition with one block-Jacobi ILU(0)
// block per process, real halo exchanges for the SpMV (priced at α per
// neighbour), and all-reduce dot products. Its iteration counts and
// communication volumes emerge from actual execution; only the clock is
// modelled. Run it on the natural and the RCM-ordered matrix at growing
// procs for one Fig. 1 point each.
func SolveDistributedPCG(a *Matrix, b []float64, procs int, tol float64, maxIter int) (*DistSolveResult, error) {
	if a == nil || a.csr == nil {
		return nil, fmt.Errorf("rcm: nil matrix")
	}
	r, err := cg.DistributedPCG(a.csr, b, procs, nil, tol, maxIter)
	if err != nil {
		return nil, err
	}
	return &DistSolveResult{
		SolveResult:      newSolveResult(r.Result),
		X:                r.X,
		Procs:            r.Procs,
		Modeled:          newBreakdown(r.Breakdown),
		HaloWordsPerIter: r.HaloWords,
		HaloMsgsPerIter:  r.HaloMsgs,
	}, nil
}
