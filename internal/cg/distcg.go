package cg

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// DistResult reports a distributed PCG solve on the simulated runtime.
type DistResult struct {
	Result
	// X is the assembled solution (gathered at rank 0).
	X []float64
	// Breakdown aggregates the per-rank BSP clocks: modelled computation
	// and communication time of the solve.
	Breakdown tally.Breakdown
	Procs     int
	// HaloWords and HaloMsgs bound one SpMV's halo exchange: the maximum
	// over ranks of ghost entries received (8-byte words) and of owners
	// received from. Both are zero at one process.
	HaloWords, HaloMsgs int64
}

// DistributedPCG solves Ax = b with preconditioned CG on the simulated
// bulk-synchronous runtime: a 1D row-block partition with one block-Jacobi
// ILU(0) block per process (the PETSc configuration of Fig. 1), real halo
// exchanges for the SpMV through NeighborAllToAllvConcat, priced like
// PETSc's VecScatter at α per neighbour, and AllReduce dot products. Its
// iteration counts, its communication volumes and its modelled time all
// emerge from execution.
func DistributedPCG(a *spmat.CSR, b []float64, procs int, model *tally.Model, tol float64, maxIter int) (*DistResult, error) {
	if !a.HasValues() {
		return nil, fmt.Errorf("cg: distributed PCG requires numeric values")
	}
	if len(b) != a.N {
		return nil, fmt.Errorf("cg: rhs length %d for n=%d", len(b), a.N)
	}
	if procs < 1 {
		procs = 1
	}
	if procs > a.N && a.N > 0 {
		procs = a.N
	}
	out := &DistResult{Procs: procs}
	var solveErr error
	// Rank k's halo plan: ghost entries received per SpMV, and the owners
	// they come from.
	haloWords := make([]int64, procs)
	haloMsgs := make([]int64, procs)

	stats := comm.Run(procs, model, func(c *comm.Comm) {
		r := newCGRank(c, a)
		haloWords[c.Rank()], haloMsgs[c.Rank()] = r.haloCounts()
		if r.err != nil {
			if c.Rank() == 0 {
				solveErr = r.err
			}
			// Keep the collective structure alive: every rank still
			// participates in the final gather below.
			x := comm.Gatherv(c, []float64(nil), 0)
			_ = x
			return
		}
		res, x := r.solve(b, tol, maxIter)
		full := comm.Gatherv(c, x, 0)
		if c.Rank() == 0 {
			out.Result = res
			out.X = full
		}
	})
	if solveErr != nil {
		return nil, solveErr
	}
	out.Breakdown = tally.Collect(stats)
	out.HaloWords, out.HaloMsgs = slices.Max(haloWords), slices.Max(haloMsgs)
	return out, nil
}

// cgRank is one rank's state: its row block, its ILU(0) block factor and
// the halo-exchange plan.
type cgRank struct {
	c      *comm.Comm
	a      *spmat.CSR
	lo, hi int
	fac    *ILU0
	err    error

	// ghostIdx[o] lists the global column indices this rank needs from
	// owner o each iteration; sendIdx[o] lists the local indices this
	// rank must send to o (the mirror of o's ghostIdx for this rank).
	ghostIdx [][]int
	sendIdx  [][]int
	// cols renumbers the block rows' column indices, in CSR order: block
	// column j is j − lo, and a ghost is hi − lo plus its slot in the
	// received value buffer.
	cols []int

	// Per-iteration halo scratch, sized once from the plan: sendBufs[o]
	// is the reusable value buffer for owner o, ghostBuf receives the
	// concatenated ghost values, counts the per-owner receive counts.
	sendBufs [][]float64
	ghostBuf []float64
	counts   []int
}

func rowStart(n, procs, k int) int { return k * n / procs }

func newCGRank(c *comm.Comm, a *spmat.CSR) *cgRank {
	r := &cgRank{c: c, a: a}
	r.lo = rowStart(a.N, c.Size(), c.Rank())
	r.hi = rowStart(a.N, c.Size(), c.Rank()+1)

	// Local diagonal block, factored with ILU(0): the block-Jacobi
	// preconditioner with exactly one block per process.
	var es []spmat.Coord
	scanned := 0
	for i := r.lo; i < r.hi; i++ {
		vals := a.RowVals(i)
		row := a.Row(i)
		scanned += len(row)
		for k, j := range row {
			if j >= r.lo && j < r.hi {
				es = append(es, spmat.Coord{Row: i - r.lo, Col: j - r.lo, Val: vals[k]})
			}
		}
	}
	c.Stats().AddWork(int64(scanned))
	block := spmat.FromCoords(r.hi-r.lo, es, false)
	fac, err := FactorILU0(block)
	if err != nil {
		r.err = fmt.Errorf("cg: rank %d block: %w", c.Rank(), err)
		// All ranks must agree on failure; the caller's collective
		// structure tolerates it because every rank sees its own error
		// or completes setup. Broadcast the failure flag.
	}
	failed := comm.AllReduce(c, err != nil, func(x, y bool) bool { return x || y })
	if failed {
		if r.err == nil {
			r.err = fmt.Errorf("cg: a peer rank failed ILU(0)")
		}
		return r
	}
	r.fac = fac

	// Halo plan: which off-block columns do my rows touch, per owner.
	owner := func(col int) int {
		k := col * c.Size() / a.N
		for k > 0 && col < rowStart(a.N, c.Size(), k) {
			k--
		}
		for k < c.Size()-1 && col >= rowStart(a.N, c.Size(), k+1) {
			k++
		}
		return k
	}
	ghostSet := map[int]bool{}
	for i := r.lo; i < r.hi; i++ {
		for _, j := range a.Row(i) {
			if j < r.lo || j >= r.hi {
				ghostSet[j] = true
			}
		}
	}
	r.ghostIdx = make([][]int, c.Size())
	ghosts := make([]int, 0, len(ghostSet))
	for j := range ghostSet {
		ghosts = append(ghosts, j)
	}
	sort.Ints(ghosts)
	for _, j := range ghosts {
		o := owner(j)
		r.ghostIdx[o] = append(r.ghostIdx[o], j)
	}
	c.Stats().AddWork(int64(len(ghosts)))
	nloc := r.hi - r.lo
	r.cols = make([]int, 0, a.RowPtr[r.hi]-a.RowPtr[r.lo])
	for i := r.lo; i < r.hi; i++ {
		for _, j := range a.Row(i) {
			if j >= r.lo && j < r.hi {
				r.cols = append(r.cols, j-r.lo)
			} else {
				r.cols = append(r.cols, nloc+sort.SearchInts(ghosts, j))
			}
		}
	}

	// Tell every owner which of its entries we need; the mirror lists
	// are what we must send each iteration.
	reqs, counts := comm.AllToAllvConcat(c, r.ghostIdx, nil, nil)
	r.sendIdx = make([][]int, c.Size())
	for o, n := range counts {
		for _, g := range reqs[:n] {
			r.sendIdx[o] = append(r.sendIdx[o], g-r.lo)
		}
		reqs = reqs[n:]
	}
	// Size the per-iteration halo scratch from the fixed plan.
	r.sendBufs = make([][]float64, c.Size())
	for o, idx := range r.sendIdx {
		if len(idx) > 0 {
			r.sendBufs[o] = make([]float64, len(idx))
		}
	}
	r.ghostBuf = make([]float64, 0, len(ghosts))
	r.counts = make([]int, c.Size())
	return r
}

// haloCounts returns the plan's per-SpMV receive volume: ghost entries and
// the owners they come from (zero before the plan exists).
func (r *cgRank) haloCounts() (words, owners int64) {
	for _, idx := range r.ghostIdx {
		if len(idx) > 0 {
			words += int64(len(idx))
			owners++
		}
	}
	return words, owners
}

// haloExchange distributes the needed remote entries of p (local slice) and
// returns the ghost value buffer in ascending global column order, the
// order cols numbers the ghosts in. The send buffers and the receive buffer
// come from the rank's scratch, so the steady-state iteration allocates
// nothing: owner buckets are disjoint sorted global ranges and ghostIdx[o]
// is sorted within each owner, so the concatenated receive buffer is
// already in that order.
func (r *cgRank) haloExchange(p []float64) []float64 {
	work := 0
	for o, idx := range r.sendIdx {
		buf := r.sendBufs[o]
		for k, li := range idx {
			buf[k] = p[li]
		}
		work += len(idx)
	}
	r.c.Stats().AddWork(int64(work))
	r.ghostBuf, r.counts = comm.NeighborAllToAllvConcat(r.c, r.sendBufs, r.ghostBuf, r.counts)
	return r.ghostBuf
}

// localSpMV computes the block row times the full x: p holds the block's
// own entries and ghosts the halo, both indexed through cols.
func (r *cgRank) localSpMV(p, ghosts, y []float64) {
	nloc := len(p)
	base := r.a.RowPtr[r.lo]
	for i := r.lo; i < r.hi; i++ {
		s := 0.0
		vals := r.a.RowVals(i)
		for k, c := range r.cols[r.a.RowPtr[i]-base : r.a.RowPtr[i+1]-base] {
			if c < nloc {
				s += vals[k] * p[c]
			} else {
				s += vals[k] * ghosts[c-nloc]
			}
		}
		y[i-r.lo] = s
	}
	r.c.Stats().AddWork(int64(len(r.cols)))
}

func (r *cgRank) dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	r.c.Stats().AddWork(int64(len(x) / 4))
	return comm.AllReduce(r.c, s, func(a, b float64) float64 { return a + b })
}

// solve runs the PCG iteration on the local block; every rank executes the
// same control flow because all scalars come from AllReduce.
func (r *cgRank) solve(bFull []float64, tol float64, maxIter int) (Result, []float64) {
	n := r.hi - r.lo
	b := bFull[r.lo:r.hi]
	x := make([]float64, n)
	res := Result{}
	rv := append([]float64(nil), b...)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	bnorm := r.dot(b, b)
	if bnorm == 0 {
		res.Converged = true
		return res, x
	}
	applyPrec := func() {
		r.fac.Apply(rv, z)
		r.c.Stats().AddWork(int64(r.fac.NNZ() / 2))
	}
	applyPrec()
	copy(p, z)
	rz := r.dot(rv, z)
	for it := 0; it < maxIter; it++ {
		ghosts := r.haloExchange(p)
		r.localSpMV(p, ghosts, ap)
		pap := r.dot(p, ap)
		if pap == 0 {
			break
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			rv[i] -= alpha * ap[i]
		}
		r.c.Stats().AddWork(int64(n / 2))
		res.Iterations = it + 1
		rr := r.dot(rv, rv)
		res.FinalRel = math.Sqrt(rr / bnorm)
		if res.FinalRel < tol {
			res.Converged = true
			break
		}
		applyPrec()
		rzNew := r.dot(rv, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
		r.c.Stats().AddWork(int64(n / 2))
	}
	return res, x
}
