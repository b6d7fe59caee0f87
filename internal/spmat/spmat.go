// Package spmat is the sequential sparse-matrix substrate: CSR/CSC/COO
// storage, construction, symmetrization, permutation (PAPᵀ), and the
// envelope/bandwidth metrics the paper optimizes (§II-A).
//
// Matrices are square (n×n); RCM is defined on symmetric matrices, and the
// graph view G(A) treats the nonzero pattern as an undirected graph with
// self-loops (diagonal entries) ignored. Values are optional: a nil Val
// slice denotes a pattern (binary) matrix, which is all the ordering
// algorithms need; the CG experiments attach numeric values.
package spmat

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/par"
)

// CSR is a square sparse matrix in compressed-sparse-row form. Column
// indices are sorted within each row and deduplicated. Val is either nil
// (pattern matrix) or parallel to Col.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// Row returns the column indices of row i (shared storage; do not mutate).
func (a *CSR) Row(i int) []int { return a.Col[a.RowPtr[i]:a.RowPtr[i+1]] }

// RowVals returns the values of row i; nil for pattern matrices.
func (a *CSR) RowVals(i int) []float64 {
	if a.Val == nil {
		return nil
	}
	return a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
}

// HasValues reports whether the matrix carries numeric values.
func (a *CSR) HasValues() bool { return a.Val != nil }

// Coord is one coordinate-format entry.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCoords builds a CSR from coordinate entries. Duplicate (row, col)
// pairs are merged (values summed). If pattern is true the values are
// dropped. Entries out of [0, n) panic: generator and reader bugs should be
// loud.
//
// A stable scatter groups the entries by row in input order; each row is
// then sorted and its duplicates merged, compacting in place. A row that
// arrives strictly ascending skips both: sorting a sorted, duplicate-free
// row is the identity, and canonical row- or column-major input (what
// mmio.Write emits, and what a symmetric expansion of either produces)
// arrives that way in every row. Any other row is sorted with sort.Sort,
// whose placement of equal columns fixes the order duplicates sum in:
// another sort could change the low bits of a merged value. When nothing
// merged, the scatter arrays are the result; otherwise they are trimmed by
// a copy.
func FromCoords(n int, entries []Coord, pattern bool) *CSR {
	rowPtr := make([]int, n+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			//lint:ignore hotalloc cold caller-bug exit: an out-of-range entry is a generator or reader bug, and the panic ends the call
			panic(fmt.Sprintf("spmat: entry (%d,%d) outside %d×%d", e.Row, e.Col, n, n))
		}
		rowPtr[e.Row+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	cols := make([]int, len(entries))
	vals := make([]float64, len(entries))
	next := make([]int, n)
	copy(next, rowPtr)
	for _, e := range entries {
		p := next[e.Row]
		cols[p] = e.Col
		vals[p] = e.Val
		next[e.Row]++
	}
	// Row i is read from [lo, hi) and written from w <= lo, so the in-place
	// compaction never overwrites an entry it has yet to read; rowPtr[i+1]
	// is rewritten only after it has been read as hi.
	var sorter *colValSorter
	w, lo := 0, 0
	for i := 0; i < n; i++ {
		hi := rowPtr[i+1]
		if strictlyAscending(cols[lo:hi]) {
			if w != lo {
				copy(cols[w:], cols[lo:hi])
				copy(vals[w:], vals[lo:hi])
			}
			w += hi - lo
		} else {
			if sorter == nil {
				sorter = &colValSorter{}
			}
			sorter.cols, sorter.vals = cols[lo:hi], vals[lo:hi]
			//lint:ignore hotalloc one sorter per call, reused by every out-of-order row; canonical input never reaches it
			sort.Sort(sorter)
			start := w
			for k := lo; k < hi; k++ {
				if w > start && cols[w-1] == cols[k] {
					vals[w-1] += vals[k]
					continue
				}
				cols[w], vals[w] = cols[k], vals[k]
				w++
			}
		}
		rowPtr[i+1] = w
		lo = hi
	}
	a := &CSR{N: n, RowPtr: rowPtr}
	switch {
	case w == 0:
		// No entries: Col and Val stay nil.
	case w == len(cols):
		a.Col = cols
		if !pattern {
			a.Val = vals
		}
	default:
		a.Col = append([]int(nil), cols[:w]...)
		if !pattern {
			a.Val = append([]float64(nil), vals[:w]...)
		}
	}
	return a
}

// strictlyAscending reports whether row is sorted without duplicates.
func strictlyAscending(row []int) bool {
	for k := 1; k < len(row); k++ {
		if row[k-1] >= row[k] {
			return false
		}
	}
	return true
}

type colValSorter struct {
	cols []int
	vals []float64
}

func (s *colValSorter) Len() int           { return len(s.cols) }
func (s *colValSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *colValSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Transpose returns Aᵀ.
func (a *CSR) Transpose() *CSR {
	n := a.N
	counts := make([]int, n+1)
	for _, c := range a.Col {
		counts[c+1]++
	}
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + counts[i+1]
	}
	cols := make([]int, len(a.Col))
	var vals []float64
	if a.Val != nil {
		vals = make([]float64, len(a.Val))
	}
	next := append([]int(nil), ptr...)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			p := next[j]
			cols[p] = i
			if vals != nil {
				vals[p] = a.Val[k]
			}
			next[j]++
		}
	}
	return &CSR{N: n, RowPtr: ptr, Col: cols, Val: vals}
}

// Symmetrize returns the pattern union A ∪ Aᵀ. For entries present on one
// side only, the value is mirrored; entries present on both sides keep this
// side's value. The result is structurally symmetric, which the ordering
// algorithms require.
func (a *CSR) Symmetrize() *CSR {
	t := a.Transpose()
	entries := make([]Coord, 0, 2*a.NNZ())
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			v := 1.0
			if a.Val != nil {
				v = a.Val[k]
			}
			entries = append(entries, Coord{i, a.Col[k], v})
		}
	}
	// Add transposed entries only where missing in A.
	for i := 0; i < t.N; i++ {
		for k := t.RowPtr[i]; k < t.RowPtr[i+1]; k++ {
			j := t.Col[k]
			if !a.Has(i, j) {
				v := 1.0
				if t.Val != nil {
					v = t.Val[k]
				}
				entries = append(entries, Coord{i, j, v})
			}
		}
	}
	return FromCoords(a.N, entries, a.Val == nil)
}

// Has reports whether entry (i, j) is stored.
func (a *CSR) Has(i, j int) bool {
	row := a.Row(i)
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// IsSymmetricPattern reports whether the nonzero pattern is symmetric: the
// one-block IsSymmetricPatternPar, on the calling goroutine.
func (a *CSR) IsSymmetricPattern() bool { return a.IsSymmetricPatternPar(1) }

// IsSymmetricPatternPar reports whether the nonzero pattern is symmetric,
// checking nnz-balanced row blocks in parallel. Block [r0, r1) is one merge
// pass with a cursor cur[j] into every row j, placed at row j's first entry
// whose column is ≥ r0 (RowPtr[j] for the first block, one binary search per
// row for the others): the block's rows i are visited in ascending order, so
// the entries (i, j) of column j arrive in the order row j lists its columns
// in [r0, r1), and each must meet its mirror (j, i) at the cursor.
//
// Each block thus maps its rows' entries injectively onto entries whose
// columns lie in [r0, r1). The blocks' column ranges partition the columns,
// so together they map the entry set injectively, hence bijectively, onto
// itself, sending (i, j) to (j, i): exactly symmetry on sorted, deduplicated
// rows, with no per-entry search. The answer does not depend on the thread
// count. threads == 1 (or a small matrix) runs one block on the calling
// goroutine with a single allocation. Every further block costs a cursor
// array of n and n binary searches, so the block count is capped at
// GOMAXPROCS, which threads < 1 selects.
func (a *CSR) IsSymmetricPatternPar(threads int) bool {
	n := a.N
	if procs := runtime.GOMAXPROCS(0); threads < 1 || threads > procs {
		threads = procs
	}
	if threads == 1 || n < minParallelRows {
		var stop atomic.Bool // does not escape: the one-block path allocates only cur
		return a.symmetricRows(0, n, make([]int, n), &stop)
	}
	bounds := WeightedBlocks(a.RowPtr, threads)
	cur := make([]int, (len(bounds)-1)*n)
	stop := new(atomic.Bool)
	par.Blocks(bounds, func(k, lo, hi int) {
		a.symmetricRows(lo, hi, cur[k*n:(k+1)*n], stop)
	})
	return !stop.Load()
}

// symmetricRows is one block of IsSymmetricPatternPar: it places the
// cursors of rows [r0, r1) in cur (len n) and merges the block's entries
// against their mirrors. A block that finds a mismatch sets stop and
// returns false; the others give up at their next row.
func (a *CSR) symmetricRows(r0, r1 int, cur []int, stop *atomic.Bool) bool {
	if r0 == 0 {
		copy(cur, a.RowPtr)
	} else {
		for j := range cur {
			k, _ := slices.BinarySearch(a.Row(j), r0)
			cur[j] = a.RowPtr[j] + k
		}
	}
	for i := r0; i < r1; i++ {
		if stop.Load() {
			return false
		}
		for _, j := range a.Row(i) {
			k := cur[j]
			if k == a.RowPtr[j+1] || a.Col[k] != i {
				stop.Store(true)
				return false
			}
			cur[j] = k + 1
		}
	}
	return true
}

// Degrees returns the adjacency degree of each vertex of G(A): the number of
// off-diagonal entries in each row.
func (a *CSR) Degrees() []int {
	deg := make([]int, a.N)
	for i := 0; i < a.N; i++ {
		d := 0
		for _, j := range a.Row(i) {
			if j != i {
				d++
			}
		}
		deg[i] = d
	}
	return deg
}

// Bandwidth returns β(A) = max |i-j| over stored entries (the overall
// bandwidth of §II-A; for symmetric patterns this equals max_i i-f_i(A)).
// An empty matrix has bandwidth 0.
func (a *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < a.N; i++ {
		for _, j := range a.Row(i) {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Profile returns |Env(A)| = Σ_i β_i(A), with β_i = i - f_i(A) and f_i the
// first nonzero column of row i (β_i = 0 for empty rows or rows whose first
// nonzero is past the diagonal).
func (a *CSR) Profile() int64 {
	var p int64
	for i := 0; i < a.N; i++ {
		row := a.Row(i)
		if len(row) == 0 {
			continue
		}
		bi := i - row[0]
		if bi > 0 {
			p += int64(bi)
		}
	}
	return p
}

// FillProxy returns Σ_i u_i(u_i−1)/2, where u_i is the number of stored
// entries strictly above the diagonal in row i. For a symmetric pattern this
// is the Cholesky fill an elimination would create if every row's upper
// neighbors pairwise clique'd immediately — a cheap O(nnz) upper-bound-style
// proxy that ranks orderings by fill tendency without running a symbolic
// factorization. Lower is better; it is what the ordering ablation reports
// next to bandwidth and profile.
func (a *CSR) FillProxy() int64 {
	var f int64
	for i := 0; i < a.N; i++ {
		row := a.Row(i)
		u := int64(len(row) - sort.SearchInts(row, i+1))
		f += u * (u - 1) / 2
	}
	return f
}

// Permute returns PAPᵀ for the permutation perm, where perm[k] is the old
// index of the row/column placed at position k (the symrcm convention: A is
// reordered so that old row perm[0] comes first). A malformed perm panics
// with the ValidatePerm diagnosis: applying it would silently corrupt the
// matrix (duplicates) or index out of range mid-kernel, and internal callers
// are supposed to have validated already — the public facade goes through
// PermuteChecked, which returns the same diagnosis as an error instead.
// Permute runs one block on the calling goroutine; PermutePar splits it.
func (a *CSR) Permute(perm []int) *CSR { return a.PermutePar(perm, 1) }

// PermutePar is Permute over up to threads row blocks (PermuteChecked),
// with its own symmetry check under the same budget.
func (a *CSR) PermutePar(perm []int, threads int) *CSR {
	p, err := a.PermuteChecked(perm, a.IsSymmetricPatternPar(threads), threads)
	if err != nil {
		//lint:ignore hotalloc cold abort: an invalid permutation never reaches the kernel loop, so this boxing runs zero times on the fast path
		panic("spmat: " + err.Error())
	}
	return p
}

// PermuteChecked is PermutePar for permutations from outside the program:
// a malformed perm comes back as the ValidatePerm diagnosis instead of a
// panic. The permutation is validated once, in the pass that inverts it.
//
// PAPᵀ is a counting-sort scatter, linear in n + nnz with no per-row sort.
// Entry (r, c) of the result is entry (perm[r], perm[c]) of A, so walking
// the new columns c in ascending order and appending c to row inv[j] for
// every entry (j, perm[c]) in column perm[c] of A fills each output row in
// ascending column order. On a symmetric pattern column perm[c] is row
// perm[c]; any other pattern takes its columns from a pattern-only
// transpose first. Values follow in a second pass: a dense marker records
// the slot of every column of output row r, and each value of old row
// perm[r] drops into its slot.
//
// The output rows split into nnz-balanced blocks, each of which runs both
// passes for its own rows (permuter.rows). A row r of PAPᵀ holds columns
// within b of r, b being PAPᵀ's bandwidth, which one pass over A through
// inv finds first, so block [r0, r1) scatters only the columns
// [r0−b, r1+b). One block is the whole scatter on the calling goroutine,
// with no band pass. threads < 1 selects GOMAXPROCS, and the block count
// is capped there, because under a wide band every further block's marker
// spans nearly n columns. The result does not depend on the thread count.
//
// symmetric must be the caller's IsSymmetricPattern answer for a, which
// callers that order a have already computed; PAPᵀ does not check it again.
// Passing true for a pattern that is not symmetric corrupts the result.
func (a *CSR) PermuteChecked(perm []int, symmetric bool, threads int) (*CSR, error) {
	inv, err := InvertChecked(perm, a.N)
	if err != nil {
		return nil, err
	}
	pm := newPermuter(a, perm, inv, symmetric)
	if procs := runtime.GOMAXPROCS(0); threads < 1 || threads > procs {
		threads = procs
	}
	if threads == 1 || a.N < minParallelRows {
		pm.rows(0, a.N)
		return pm.out, nil
	}
	pm.band = a.permutedBand(inv, threads)
	par.Blocks(WeightedBlocks(pm.out.RowPtr, threads), func(_, lo, hi int) { pm.rows(lo, hi) })
	return pm.out, nil
}

// permutedBand is the bandwidth of PAPᵀ, the largest |inv[i] − inv[j]|
// over the entries (i, j) of A, from nnz-balanced row blocks of A.
func (a *CSR) permutedBand(inv []int, threads int) int {
	bounds := WeightedBlocks(a.RowPtr, threads)
	part := make([]int, len(bounds)-1)
	par.Blocks(bounds, func(k, lo, hi int) {
		b := 0
		for i := lo; i < hi; i++ {
			ri := inv[i]
			for _, j := range a.Row(i) {
				b = max(b, ri-inv[j], inv[j]-ri)
			}
		}
		part[k] = b
	})
	return slices.Max(part)
}

// permuter is the shared state of one PAPᵀ build: the input, its
// permutation both ways, the columns of A to scatter from, the result, the
// scatter cursors (one per output row) and the band.
type permuter struct {
	a               *CSR
	perm, inv       []int
	colPtr, colRows []int
	out             *CSR
	next            []int
	band            int
}

// newPermuter allocates PAPᵀ with its row pointers set, and the scatter
// cursors at the start of every row. Its band is n, the bound of every
// permutation, until the caller finds PAPᵀ's.
func newPermuter(a *CSR, perm, inv []int, symmetric bool) *permuter {
	n := a.N
	pm := &permuter{a: a, perm: perm, inv: inv, colPtr: a.RowPtr, colRows: a.Col, band: n}
	if !symmetric {
		t := (&CSR{N: n, RowPtr: a.RowPtr, Col: a.Col}).Transpose()
		pm.colPtr, pm.colRows = t.RowPtr, t.Col
	}
	rowPtr := make([]int, n+1)
	for r, old := range perm {
		rowPtr[r+1] = rowPtr[r] + (a.RowPtr[old+1] - a.RowPtr[old])
	}
	pm.out = &CSR{N: n, RowPtr: rowPtr, Col: make([]int, a.NNZ())}
	if a.Val != nil {
		pm.out.Val = make([]float64, a.NNZ())
	}
	pm.next = make([]int, n)
	copy(pm.next, rowPtr)
	return pm
}

// rows builds output rows [r0, r1): the scatter over the columns
// [r0−band, r1+band), keeping the entries whose row falls in the block,
// then the value pass over the block's rows. Blocks own disjoint rows, so
// they write disjoint ranges of Col, Val and next. Neighbouring blocks'
// column windows overlap, so each block's value marker is its own, indexed
// within its window; a block that owns every row reuses its spent scatter
// cursors instead.
func (pm *permuter) rows(r0, r1 int) {
	if r0 == r1 {
		return
	}
	a, perm, inv, out, next := pm.a, pm.perm, pm.inv, pm.out, pm.next
	c0, c1 := max(r0-pm.band, 0), min(r1+pm.band, a.N)
	for c, old := range perm[c0:c1] {
		for _, j := range pm.colRows[pm.colPtr[old]:pm.colPtr[old+1]] {
			if r := inv[j]; uint(r-r0) < uint(r1-r0) {
				out.Col[next[r]] = c0 + c
				next[r]++
			}
		}
	}
	if out.Val == nil {
		return
	}
	mark := next
	if r1-r0 < a.N {
		mark = make([]int, c1-c0)
	}
	for r, old := range perm[r0:r1] {
		lo, hi := out.RowPtr[r0+r], out.RowPtr[r0+r+1]
		for k, c := range out.Col[lo:hi] {
			mark[c-c0] = lo + k
		}
		vals := a.Val[a.RowPtr[old]:a.RowPtr[old+1]]
		for k, j := range a.Col[a.RowPtr[old]:a.RowPtr[old+1]] {
			out.Val[mark[inv[j]-c0]] = vals[k]
		}
	}
}

// BFS performs a breadth-first search over G(A) from start, ignoring
// self-loops. It returns the level of every vertex (-1 for unreached) and
// the number of levels (the eccentricity of start within its component,
// plus one).
func (a *CSR) BFS(start int) (levels []int, nlevels int) {
	levels = make([]int, a.N)
	for i := range levels {
		levels[i] = -1
	}
	if a.N == 0 {
		return levels, 0
	}
	frontier := []int{start}
	levels[start] = 0
	lvl := 0
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, w := range a.Row(v) {
				if w != v && levels[w] < 0 {
					levels[w] = lvl + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
		lvl++
	}
	return levels, lvl
}

// IsPerm reports whether p is a permutation of 0..n-1.
func IsPerm(p []int) bool {
	return ValidatePerm(p, len(p)) == nil
}

// ValidatePerm explains why p is not a permutation of 0..n-1 — length
// mismatch, out-of-range entry, or duplicate, naming the first offending
// position — or returns nil when it is one. It is the shared diagnosis
// behind every permutation-accepting entry point (Permute, the rcm facade,
// mmio.ReadPerm).
func ValidatePerm(p []int, n int) error {
	_, err := InvertChecked(p, n)
	return err
}

// InvertChecked is ValidatePerm returning the inverse permutation on
// success: the array that records where each entry was first seen, which
// the duplicate check needs anyway, is the inverse.
func InvertChecked(p []int, n int) ([]int, error) {
	if len(p) != n {
		return nil, fmt.Errorf("permutation has length %d, want %d", len(p), n)
	}
	inv := make([]int, n)
	for k := range inv {
		inv[k] = -1
	}
	for k, v := range p {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("permutation entry %d at position %d outside 0..%d", v, k, n-1)
		}
		if prev := inv[v]; prev >= 0 {
			return nil, fmt.Errorf("permutation repeats entry %d at positions %d and %d", v, prev, k)
		}
		inv[v] = k
	}
	return inv, nil
}

// InvertPerm returns the inverse permutation: out[p[k]] = k.
func InvertPerm(p []int) []int {
	inv := make([]int, len(p))
	for k, old := range p {
		inv[old] = k
	}
	return inv
}
