// Package distmat implements the distributed-memory objects of the paper's
// §IV: a sparse matrix decomposed into 2D blocks stored locally in CSC, and
// distributed sparse/dense vectors in the canonical grid layout. On top of
// these it provides the distributed versions of the Table I primitives —
// SPMSPV over the (select2nd, min) semiring (the CombBLAS 2D algorithm),
// element-wise SELECT/SET/IND (communication-free by construction), REDUCE
// (local fold + all-reduce) and the distributed bucket SORTPERM of §IV-B.
//
// Every method is SPMD: all ranks of the grid call it collectively with
// their own local pieces. Local work is reported to the rank's tally.Stats,
// and all communication flows through package comm, so the BSP virtual clock
// of each rank tracks the modelled execution time of the paper's cost model.
//
// The hot-path primitives (SPMSPV, SORTPERM) run over per-rank scratch
// workspaces: the Mat carries the SpMSpV exchange buffers and its sparse
// accumulator, and SortWS carries the SORTPERM ones, so the per-BFS-level
// steady state performs no allocations beyond the output vector. Both RCM
// traversals need only (select2nd, min), so the kernels fold with min
// directly: the fold is a compare in the per-edge loop, not a parameter.
package distmat

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/psort"
	"repro/internal/spmat"
)

// Entry is a (global index, value) pair exchanged between ranks.
type Entry struct {
	Ind int
	Val int64
}

// sortWork returns the modelled work of the linear-time keyed sort of n
// elements (histogram + stable scatter).
func sortWork(n int) int64 { return int64(2 * n) }

// spmspvWS is the per-rank scratch of SpMSpV, reused across calls so the
// steady state allocates nothing but the output vector.
type spmspvWS struct {
	mine    []Entry
	swapped []Entry
	xj      []Entry
	out     []Entry
	send    [][]Entry
	recv    []Entry
	counts  []int
}

// Mat is one rank's block of a distributed pattern matrix.
type Mat struct {
	D *grid.Dist
	// RowLo/RowHi and ColLo/ColHi delimit the global index ranges of the
	// local block; Block stores it in CSC with block-local (int32) indices.
	RowLo, RowHi int
	ColLo, ColHi int
	Block        *spmat.CSC
	// dcsc, when non-nil, is the doubly compressed form of Block and the
	// SpMSpV kernel runs over it instead (see EnableDCSC).
	dcsc *spmat.DCSC
	// rt is the row-major view of Block, the transpose the bottom-up kernel
	// scans: rt.Column(r) lists local row r's columns. NewMat builds it
	// first and Block from it. Hypersparse blocks compress it into rtDCSC
	// at the first bottom-up level and drop the dense form; buCharged
	// records that level's one-time charge.
	rt        *spmat.CSC
	rtDCSC    *spmat.DCSC
	buCharged bool
	// deg holds each local row's off-diagonal entry count, which
	// DegreeVec reduce-scatters along the processor row.
	deg []int64

	// spa is the sparse accumulator of the local kernels and of the
	// row-partial merge, reused across SpMSpV and bottom-up calls.
	spa spmat.SPA
	// ws holds the exchange and sort scratch of the SpMSpV pipeline; bu
	// holds the bitmap and partial buffers of the bottom-up step.
	ws spmspvWS
	bu bottomUpWS
}

// EnableDCSC switches the local SpMSpV kernel to the doubly compressed
// block (hypersparse regime); results are identical, storage and probe
// pattern differ. Local operation.
func (m *Mat) EnableDCSC() {
	if m.dcsc == nil {
		m.dcsc = spmat.DCSCFromCSC(m.Block)
	}
}

// NewMat extracts the calling rank's block of the global matrix a
// (structure only). In a real distributed setting the matrix would already
// be distributed (the paper's motivating scenario); the simulator hands
// every rank the same read-only global structure and each rank carves out
// its block, which costs the same local scan.
//
// CSR rows are sorted and duplicate-free, so each row's entries inside the
// block's column range form one window, found by one binary search pair per
// row. The windows, copied in row order, are the row-major view rt that the
// bottom-up kernel scans; the same loop counts each column's entries and
// each row's off-diagonal ones (the degrees DegreeVec needs). A prefix sum
// and one scatter of rt in ascending row order then leave every CSC column
// sorted: no coordinate lists, no per-column sort, no transpose.
func NewMat(d *grid.Dist, a *spmat.CSR) *Mat {
	if a.N != d.N {
		//lint:ignore hotalloc cold caller-bug exit: runs at most once, right before the panic
		panic(fmt.Sprintf("distmat: matrix dimension %d does not match distribution %d", a.N, d.N))
	}
	m := &Mat{D: d}
	m.RowLo, m.RowHi = d.MyRowRange()
	m.ColLo, m.ColHi = d.MyColRange()
	rows, cols := m.RowHi-m.RowLo, m.ColHi-m.ColLo
	spmat.CheckIndexDim(rows)
	spmat.CheckIndexDim(cols)
	// Window r is a.Col[start[r] : start[r]+len], its length prefix-summed
	// into rt's pointers.
	rtPtr := make([]int, rows+1)
	start := make([]int, rows)
	for r := range start {
		row := a.Row(m.RowLo + r)
		lo, _ := slices.BinarySearch(row, m.ColLo)
		n, _ := slices.BinarySearch(row[lo:], m.ColHi)
		start[r] = a.RowPtr[m.RowLo+r] + lo
		rtPtr[r+1] = rtPtr[r] + n
	}
	var rtCol, rowIdx []int32
	if nnz := rtPtr[rows]; nnz > 0 {
		rtCol = make([]int32, nnz)
		rowIdx = make([]int32, nnz)
	}
	ptr := make([]int, cols+1)
	m.deg = make([]int64, rows)
	for r := range start {
		out := rtCol[rtPtr[r]:rtPtr[r+1]]
		diag := m.RowLo + r
		deg := int64(len(out))
		for k, j := range a.Col[start[r] : start[r]+len(out)] {
			if j == diag {
				deg--
			}
			out[k] = int32(j - m.ColLo)
			ptr[j-m.ColLo+1]++
		}
		m.deg[r] = deg
	}
	for j := 0; j < cols; j++ {
		ptr[j+1] += ptr[j]
	}
	// Scatter with ptr[j] as column j's cursor; afterwards ptr[j] holds
	// column j's end, and one shift restores the starts.
	for r := 0; r < rows; r++ {
		for _, j := range rtCol[rtPtr[r]:rtPtr[r+1]] {
			rowIdx[ptr[j]] = int32(r)
			ptr[j]++
		}
	}
	copy(ptr[1:], ptr[:cols])
	ptr[0] = 0
	m.Block = &spmat.CSC{Rows: rows, Cols: cols, ColPtr: ptr, Row: rowIdx}
	m.rt = &spmat.CSC{Rows: cols, Cols: rows, ColPtr: rtPtr, Row: rtCol}
	d.G.World.Stats().AddWork(int64(a.RowPtr[m.RowHi] - a.RowPtr[m.RowLo]))
	return m
}

// Vec is one rank's chunk of a distributed dense vector.
type Vec struct {
	D      *grid.Dist
	Lo, Hi int
	Data   []int64
}

// NewVec allocates a distributed dense vector filled with fill.
func NewVec(d *grid.Dist, fill int64) *Vec {
	lo, hi := d.MyRange()
	v := &Vec{D: d, Lo: lo, Hi: hi, Data: make([]int64, hi-lo)}
	if fill != 0 {
		for i := range v.Data {
			v.Data[i] = fill
		}
	}
	return v
}

// At returns the value at global index g, which must be locally owned.
func (v *Vec) At(g int) int64 { return v.Data[g-v.Lo] }

// Set assigns the value at global index g, which must be locally owned.
func (v *Vec) Set(g int, val int64) { v.Data[g-v.Lo] = val }

// Owns reports whether global index g falls in this rank's chunk.
func (v *Vec) Owns(g int) bool { return g >= v.Lo && g < v.Hi }

// Gather collects the full dense vector at root (nil elsewhere). World rank
// order coincides with ascending global ranges, so concatenation is the
// vector.
func (v *Vec) Gather(root int) []int64 {
	return comm.Gatherv(v.D.G.World, v.Data, root)
}

// SpV is one rank's chunk of a distributed sparse vector: entries with
// global indices inside [Lo, Hi), index-sorted.
type SpV struct {
	D      *grid.Dist
	Lo, Hi int
	Loc    Sp // global indices
}

// NewSpV returns an empty distributed sparse vector.
func NewSpV(d *grid.Dist) *SpV {
	lo, hi := d.MyRange()
	return &SpV{D: d, Lo: lo, Hi: hi}
}

// NewSpVSingle returns a distributed sparse vector holding the single entry
// (ind, val); only the owning rank stores it.
func NewSpVSingle(d *grid.Dist, ind int, val int64) *SpV {
	x := NewSpV(d)
	if ind >= x.Lo && ind < x.Hi {
		x.Loc.Append(ind, val)
	}
	return x
}

// GatherDense replaces the values of x with the corresponding entries of the
// distributed dense vector y: the distributed SET(Lcur, R) gather step.
// Local by construction (x and y share the canonical distribution).
func (x *SpV) GatherDense(y *Vec) {
	for k, i := range x.Loc.Ind {
		x.Loc.Val[k] = y.At(i)
	}
	x.D.G.World.Stats().AddWork(int64(x.Loc.Len()))
}

// SelectUnlabeled filters x down to the entries whose dense value in y is
// -1 (not yet labelled or visited), reusing x's storage: the distributed
// SELECT primitive as both BFS engines use it, allocation free on the hot
// path. Local by construction.
func (x *SpV) SelectUnlabeled(y *Vec) {
	n := x.Loc.Len()
	w := 0
	for k, i := range x.Loc.Ind {
		if y.At(i) == -1 {
			x.Loc.Ind[w] = i
			x.Loc.Val[w] = x.Loc.Val[k]
			w++
		}
	}
	x.Loc.Ind = x.Loc.Ind[:w]
	x.Loc.Val = x.Loc.Val[:w]
	x.D.G.World.Stats().AddWork(int64(n))
}

// SetDense overwrites y at the indices of x with x's values: the distributed
// SET(R, Rnext) primitive. Local by construction.
func (x *SpV) SetDense(y *Vec) {
	for k, i := range x.Loc.Ind {
		y.Set(i, x.Loc.Val[k])
	}
	x.D.G.World.Stats().AddWork(int64(x.Loc.Len()))
}

// KeyedInd is a (key, index) pair of the k-smallest reduction.
type KeyedInd struct {
	Key int64
	Ind int
}

// keyedIndLess is the ascending (key, index) order of the reduction.
func keyedIndLess(a, b KeyedInd) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Ind < b.Ind
}

// pushKeyedInd inserts c into the ascending (key, index) shortlist, keeping
// at most max entries.
func pushKeyedInd(list []KeyedInd, c KeyedInd, max int) []KeyedInd {
	return psort.InsertCapped(list, c, max, keyedIndLess)
}

// ArgMinKBy returns the k smallest (y value, index) pairs over the global
// support of x, in ascending (key, index) order, with deterministic
// tie-breaking by index. At k = 1 this is the REDUCE(Lcur, D) step selecting
// the minimum-degree vertex of the last BFS level (Algorithm 4, line 16);
// the bi-criteria start policy shortlists its last-level candidates with a
// larger k. Each rank selects its local k best, the lists are allgathered,
// and every rank merges them identically, so the result is byte-identical
// across ranks. Returns fewer than k pairs when x has fewer global
// nonzeros. Collective.
func (x *SpV) ArgMinKBy(y *Vec, k int) []KeyedInd {
	if k < 1 {
		k = 1
	}
	local := make([]KeyedInd, 0, k)
	for _, i := range x.Loc.Ind {
		local = pushKeyedInd(local, KeyedInd{Key: y.At(i), Ind: i}, k)
	}
	all := comm.AllGathervConcat(x.D.G.World, local)
	out := make([]KeyedInd, 0, k)
	for _, c := range all {
		out = pushKeyedInd(out, c, k)
	}
	x.D.G.World.Stats().AddWork(int64(x.Loc.Len()) + int64(len(all)))
	return out
}

// SpMSpV multiplies the distributed matrix by the distributed sparse vector
// over (select2nd, min), returning a distributed sparse vector: each output
// row carries the minimum value of its frontier neighbours. This is the 2D
// CombBLAS algorithm the paper builds on (§IV-B):
//
//  1. transpose exchange: each rank sends its vector chunk to its transpose
//     partner, aligning vector pieces with processor columns;
//  2. AllGatherv along the processor column, assembling the full frontier
//     segment x_j needed by the column's matrix blocks;
//  3. local CSC (or DCSC) SpMSpV into the Mat's sparse accumulator;
//  4. AllToAllv along the processor row, routing output entries to their
//     owners, min-merged in the same accumulator.
//
// All intermediate buffers come from the Mat's per-rank workspace;
// steady-state calls allocate only the output vector. Collective; requires
// a square grid.
func SpMSpV(m *Mat, x *SpV) *SpV {
	g := m.D.G
	if g.Pr != g.Pc {
		//lint:ignore hotalloc cold caller-bug exit, and a constant string boxes without allocating
		panic("distmat: SpMSpV requires a square process grid")
	}
	ws := &m.ws
	// Step 1: transpose exchange.
	ws.mine = packEntriesInto(&x.Loc, ws.mine)
	ws.swapped = comm.ExchangeInto(g.World, g.TransposeRank(), ws.mine, ws.swapped)
	// Step 2: assemble x_j along the processor column. Column ranks are
	// ordered by grid row, and after the transpose each holds the
	// sub-chunk of column block MyCol matching its grid row, so
	// concatenation in rank order is sorted by global index.
	ws.xj = comm.AllGathervConcatInto(g.Col, ws.swapped, ws.xj)

	// Step 3: local multiply with a sparse accumulator.
	var touched []Entry
	if m.dcsc != nil {
		touched = m.LocalSpMSpVDCSC(m.dcsc, ws.xj)
	} else {
		touched = m.LocalSpMSpVCSC(ws.xj)
	}

	// Step 4: route outputs to their owners along the processor row.
	return routeRowPartials(m, touched)
}

// routeRowPartials is the shared tail of SpMSpV and BottomUpStep: partial
// (global row, value) results are routed to their vector-chunk owners along
// the processor row and min-reduced. The input is index-sorted and the
// destination sub-chunks are contiguous index ranges in rank order, so the
// send lists are subslices of it — no per-destination copies.
func routeRowPartials(m *Mat, touched []Entry) *SpV {
	g := m.D.G
	ws := &m.ws
	if cap(ws.send) < g.Pc {
		ws.send = make([][]Entry, g.Pc)
	}
	send := ws.send[:g.Pc]
	pos := 0
	for j := 0; j < g.Pc; j++ {
		hi := m.RowHi
		if j < g.Pc-1 {
			hi = m.D.SubStart(g.MyRow, j+1)
		}
		start := pos
		for pos < len(touched) && touched[pos].Ind < hi {
			pos++
		}
		send[j] = touched[start:pos]
	}
	ws.recv, ws.counts = comm.AllToAllvConcat(g.Row, send, ws.recv, ws.counts)
	out := NewSpV(m.D)
	out.Loc = foldPartials(&m.spa, ws.recv, out.Lo, out.Hi-out.Lo)
	g.World.Stats().AddWork(int64(len(touched)) + int64(len(ws.recv)))
	return out
}

// foldPartials merges the runs the row exchange received — each
// index-sorted, concatenated in source order, every index in [lo, lo+n) —
// into one index-sorted vector, keeping the minimum value of duplicate
// indices.
func foldPartials(spa *spmat.SPA, all []Entry, lo, n int) Sp {
	spa.Reset(n)
	for _, e := range all {
		spa.Fold(e.Ind-lo, e.Val)
	}
	var out Sp
	if idx := spa.Drain(); len(idx) > 0 {
		out.Ind = make([]int, len(idx))
		out.Val = make([]int64, len(idx))
		for k, i := range idx {
			out.Ind[k] = lo + i
			out.Val[k] = spa.Value(i)
		}
	}
	return out
}

// LocalSpMSpVCSC is the local CSC kernel of SpMSpV (step 3): every frontier
// entry (global column index) folds its value into the accumulator at each
// row of its matrix column. Returns index-sorted entries with global row
// indices, in the workspace's output buffer (valid until the next kernel
// call on this Mat). The format ablation compares it against
// LocalSpMSpVCSRScan.
func (m *Mat) LocalSpMSpVCSC(xj []Entry) []Entry {
	m.spa.Reset(m.RowHi - m.RowLo)
	work := int64(len(xj))
	for _, e := range xj {
		col := m.Block.Column(e.Ind - m.ColLo)
		work += int64(len(col))
		m.spa.FoldColumn(col, e.Val)
	}
	return m.spaEmit(work)
}

// LocalSpMSpVDCSC is the local kernel over a DCSC block: identical output
// to LocalSpMSpVCSC, with per-column binary searches over the compressed
// column list instead of direct column-pointer indexing.
func (m *Mat) LocalSpMSpVDCSC(d *spmat.DCSC, xj []Entry) []Entry {
	m.spa.Reset(m.RowHi - m.RowLo)
	work := int64(len(xj))
	for _, e := range xj {
		col := d.Column(e.Ind - m.ColLo)
		work += int64(len(col)) + 1 // +1 for the binary search probe
		m.spa.FoldColumn(col, e.Val)
	}
	return m.spaEmit(work)
}

// spaEmit is the shared tail of the CSC and DCSC kernels: drain the
// accumulator into index-sorted global entries and charge the work. The
// charge includes sortWork for the touched rows whichever way the drain
// ran: the model prices the paper's kernel, which sorts them.
func (m *Mat) spaEmit(work int64) []Entry {
	rows := m.spa.Drain()
	out := m.ws.out[:0]
	for _, lrow := range rows {
		out = append(out, Entry{Ind: m.RowLo + lrow, Val: m.spa.Value(lrow)})
	}
	m.ws.out = out
	m.D.G.World.Stats().AddWork(work + sortWork(len(rows)) + int64(len(rows)))
	return out
}

// LocalSpMSpVCSRScan is the row-scan alternative kernel used by the
// format ablation: it walks every local row and probes the frontier by
// binary search, the natural CSR formulation. It is asymptotically worse for
// very sparse frontiers — the reason the paper picked CSC (§IV-A).
func (m *Mat) LocalSpMSpVCSRScan(csr *spmat.CSR, xj []Entry) []Entry {
	var out []Entry
	work := int64(0)
	for lrow := 0; lrow < csr.N; lrow++ {
		row := csr.Row(lrow)
		work += int64(len(row))
		acc := int64(math.MaxInt64)
		hit := false
		for _, lcol := range row {
			if e, ok := findEntry(xj, m.ColLo+lcol); ok {
				acc = min(acc, e.Val)
				hit = true
			}
		}
		if hit {
			out = append(out, Entry{Ind: m.RowLo + lrow, Val: acc})
		}
	}
	m.D.G.World.Stats().AddWork(work)
	return out
}

func findEntry(xs []Entry, ind int) (Entry, bool) {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid].Ind < ind {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo].Ind == ind {
		return xs[lo], true
	}
	return Entry{}, false
}

// packEntriesInto flattens a sparse vector into (index, value) records,
// appending into buf[:0].
func packEntriesInto(s *Sp, buf []Entry) []Entry {
	out := buf[:0]
	for k := range s.Ind {
		out = append(out, Entry{Ind: s.Ind[k], Val: s.Val[k]})
	}
	return out
}
