package distmat

import (
	"repro/internal/comm"
	"repro/internal/spmat"
)

// bottomUpWS is the per-rank scratch of the bottom-up step, reused across BFS
// levels like the SpMSpV workspace: bitmap words, dense label array and the
// partial-result buffers survive between calls so the steady state allocates
// only the output vector.
type bottomUpWS struct {
	colBits   spmat.Bitmap // frontier bitmap over the local column block
	colBitsWS spmat.Bitmap // OR-allreduce scratch (label-free assembly)
	colLabel  []int64      // frontier labels over the local column block
	rowBits   spmat.Bitmap // this rank's visited contribution over the row block
	rowBitsWS spmat.Bitmap // OR-allreduce scratch
	rv        []spmat.RowVal
	ents      []Entry
}

// ensureBottomUp readies the row-major view NewMat built for the bottom-up
// kernel, on every rank's first bottom-up level. It charges the transpose
// (and, for hypersparse blocks, the compression) the paper's code performs
// there, so top-down-only runs are never charged for it; the host built the
// view in NewMat and only compresses it here. Hypersparse blocks keep only
// the doubly compressed view, dropping the dense ColPtr form, which
// preserves the DCSC memory goal. Local operation.
func (m *Mat) ensureBottomUp() {
	if m.buCharged {
		return
	}
	m.buCharged = true
	m.D.G.World.Stats().AddWork(int64(2*m.Block.NNZ() + m.Block.Rows + m.Block.Cols))
	if m.dcsc != nil {
		m.rtDCSC = spmat.DCSCFromCSC(m.rt)
		m.D.G.World.Stats().AddWork(int64(m.rt.NNZ() + m.rt.Cols))
		m.rt = nil
	}
}

// BottomUpStep is the direction-optimized alternative to SpMSpV: a
// distributed masked SpMV that expands the BFS level bottom-up, scanning
// unvisited rows for frontier neighbours instead of frontier columns for
// undiscovered rows (Beamer's direction optimization, as CombBLAS-family
// BFS implements it on the 2D decomposition):
//
//  1. transpose exchange, aligning frontier pieces with processor columns
//     (identical to SpMSpV step 1);
//  2. frontier densification over the local column block: label-free runs
//     (the pseudo-peripheral BFS, where every frontier value is the current
//     level) assemble only a dense bitmap, OR-reduced along the processor
//     column as packed words — 64× denser than the entry lists; ordering
//     runs need the labels for the min-fold, so the sparse pieces are
//     allgathered as in SpMSpV and densified into bitmap + label array
//     locally;
//  3. the visited mask over the local row block, OR-reduced along the
//     processor row from each rank's vector chunk (vis values >= 0);
//  4. the local bottom-up kernel (CSC or DCSC row-major view) over the
//     unvisited rows — early exit per row only when labelFree, because the
//     (select2nd, min) ordering fold must see every frontier neighbour to
//     stay byte-identical to the top-down sweep;
//  5. the (vertex, label) partials, already index-sorted, min-reduced along
//     the processor row to their owners (the same routeRowPartials tail as
//     SpMSpV).
//
// The output equals SpMSpV(m, x) followed by SelectUnlabeled(vis): the
// entries are exactly the unvisited vertices adjacent to the frontier, each
// carrying the minimum value of its frontier neighbours, or 0 when
// labelFree. vis is the dense visited state (R or L; entries >= 0 are
// visited). Collective; requires a square grid.
func BottomUpStep(m *Mat, x *SpV, vis *Vec, labelFree bool) *SpV {
	g := m.D.G
	if g.Pr != g.Pc {
		//lint:ignore hotalloc cold caller-bug exit, and a constant string boxes without allocating
		panic("distmat: BottomUpStep requires a square process grid")
	}
	m.ensureBottomUp()
	ws := &m.ws
	bu := &m.bu
	stats := g.World.Stats()
	rows := m.RowHi - m.RowLo
	cols := m.ColHi - m.ColLo

	// Step 1: transpose exchange.
	ws.mine = packEntriesInto(&x.Loc, ws.mine)
	ws.swapped = comm.ExchangeInto(g.World, g.TransposeRank(), ws.mine, ws.swapped)

	// Step 2: densify the frontier over the column block.
	bu.colBits = bu.colBits.Reuse(cols)
	if labelFree {
		for _, e := range ws.swapped {
			bu.colBits.Set(e.Ind - m.ColLo)
		}
		stats.AddWork(int64(len(ws.swapped) + len(bu.colBits)))
		//lint:ignore lockstep labelFree is a replicated argument: every rank passes the same value, so all ranks take this branch together
		bu.colBitsWS = comm.AllReduceSliceInto(g.Col, bu.colBits, orWords, bu.colBitsWS)
		bu.colBits, bu.colBitsWS = bu.colBitsWS, bu.colBits
	} else {
		//lint:ignore lockstep labelFree is a replicated argument: every rank passes the same value, so all ranks take this branch together
		ws.xj = comm.AllGathervConcatInto(g.Col, ws.swapped, ws.xj)
		if cap(bu.colLabel) < cols {
			bu.colLabel = make([]int64, cols)
		}
		label := bu.colLabel[:cols]
		for _, e := range ws.xj {
			lc := e.Ind - m.ColLo
			bu.colBits.Set(lc)
			label[lc] = e.Val // only read where the bit is set; no reset needed
		}
		stats.AddWork(int64(len(ws.xj) + len(bu.colBits)))
	}

	// Step 3: visited mask over the row block.
	bu.rowBits = bu.rowBits.Reuse(rows)
	off := vis.Lo - m.RowLo
	for k, v := range vis.Data {
		if v >= 0 {
			bu.rowBits.Set(off + k)
		}
	}
	stats.AddWork(int64(len(vis.Data) + len(bu.rowBits)))
	bu.rowBitsWS = comm.AllReduceSliceInto(g.Row, bu.rowBits, orWords, bu.rowBitsWS)
	bu.rowBits, bu.rowBitsWS = bu.rowBitsWS, bu.rowBits

	// Step 4: local bottom-up kernel over the unvisited rows.
	var work int64
	if m.dcsc != nil {
		bu.rv, work = spmat.BottomUpDCSC(m.rtDCSC, bu.rowBits, bu.colBits, bu.colLabel, labelFree, bu.rv[:0])
	} else {
		bu.rv, work = spmat.BottomUpCSC(m.rt, bu.rowBits, bu.colBits, bu.colLabel, labelFree, bu.rv[:0])
	}
	stats.AddWork(work)

	// Step 5: min-reduce the (vertex, label) partials along the processor
	// row. The kernel emits rows ascending, so the entries are index-sorted.
	ents := bu.ents[:0]
	for _, rv := range bu.rv {
		ents = append(ents, Entry{Ind: m.RowLo + rv.Row, Val: rv.Val})
	}
	bu.ents = ents
	return routeRowPartials(m, ents)
}

// orWords is the bitwise-OR fold of the bitmap collectives.
func orWords(a, b uint64) uint64 { return a | b }

// CountWithDegree returns the global nonzero count of x together with the
// global degree sum over its support — the (n_f, m_f) pair of the Beamer
// direction heuristic — with one AllReduce. Collective.
func (x *SpV) CountWithDegree(deg *Vec) (cnt, mf int64) {
	local := cntDeg{cnt: int64(x.Loc.Len())}
	for _, i := range x.Loc.Ind {
		local.mf += deg.At(i)
	}
	x.D.G.World.Stats().AddWork(int64(x.Loc.Len()))
	out := comm.AllReduce(x.D.G.World, local, func(a, b cntDeg) cntDeg {
		return cntDeg{cnt: a.cnt + b.cnt, mf: a.mf + b.mf}
	})
	return out.cnt, out.mf
}

// cntDeg is the payload of the CountWithDegree reduction.
type cntDeg struct{ cnt, mf int64 }

// DegreeOf returns the degree of global vertex v from the distributed degree
// vector (an AllReduce of the owner's value). Collective.
func DegreeOf(deg *Vec, v int) int64 {
	var local int64
	if deg.Owns(v) {
		local = deg.At(v)
	}
	return comm.AllReduceSum(deg.D.G.World, local)
}
