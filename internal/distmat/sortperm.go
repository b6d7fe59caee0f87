package distmat

import (
	"math"

	"repro/internal/comm"
	"repro/internal/psort"
)

// SortWS is the per-rank scratch of the SORTPERM primitive: tuple and entry
// buffers, bucket counters, the tuple sort's workspace and the dense label
// slots of the rank's vector chunk, reused across BFS levels so the steady
// state allocates only the output vector. The zero value is ready to use.
type SortWS struct {
	tuples  []Tuple
	sendBuf []Tuple
	send    [][]Tuple
	bucket  []int
	mine    []Tuple
	counts  []int
	backBuf []Entry
	back    [][]Entry
	owners  []int
	ents    []Entry
	entCnt  []int
	labels  []int64
	tupWS   psort.Scratch[Tuple]
}

// zeroInts returns buf resized to n and zeroed.
func zeroInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// minMax is the payload of the combined parent-range reduction.
type minMax struct {
	min, max int64
}

// SortPermWS implements the distributed SORTPERM primitive of §IV-B. Input:
// the next frontier lnext, whose values are parent labels, and the degree
// vector deg; nv is the number of vertices labeled so far. It returns the
// distributed sparse vector Rnext assigning to every vertex of lnext its new
// label nv + rank-in-sorted-order, where the order is lexicographic by
// (parent label, degree, vertex id).
//
// Following the paper, processor i is responsible for sorting the tuples
// whose parent labels fall in the i-th slice of the parent-label range (the
// labels of the previous frontier are contiguous, so this is a balanced
// bucket sort). One AllToAllv exchanges the tuples, a local linear-time
// keyed sort orders each bucket (the CG80-style counting sort by (parent,
// degree, vertex) — not a comparison sort), an exclusive scan turns bucket
// offsets into global positions, and a second AllToAllv returns
// (vertex, label) pairs to the vertex owners.
//
// ws is the per-rank workspace; the ordering BFS calls SortPermWS once per
// level with the same workspace.
func SortPermWS(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV {
	g := lnext.D.G
	world := g.World
	p := world.Size()

	// Local tuples.
	if cap(ws.tuples) < lnext.Loc.Len() {
		ws.tuples = make([]Tuple, 0, lnext.Loc.Len())
	}
	tuples := ws.tuples[:0]
	for k, i := range lnext.Loc.Ind {
		tuples = append(tuples, Tuple{Parent: lnext.Loc.Val[k], Degree: deg.At(i), Vertex: i})
	}
	ws.tuples = tuples
	world.Stats().AddWork(int64(len(tuples)))

	// Parent-label range across all ranks (the labels assigned to the
	// previous frontier are contiguous, but we recompute the bounds to be
	// robust for degenerate frontiers). One AllReduce carries both bounds.
	local := minMax{min: math.MaxInt64, max: math.MinInt64}
	for _, t := range tuples {
		if t.Parent < local.min {
			local.min = t.Parent
		}
		if t.Parent > local.max {
			local.max = t.Parent
		}
	}
	mm := comm.AllReduce(world, local, func(a, b minMax) minMax {
		if b.min < a.min {
			a.min = b.min
		}
		if b.max > a.max {
			a.max = b.max
		}
		return a
	})
	minP, maxP := mm.min, mm.max

	// Bucket by parent label and exchange: a stable two-pass counting
	// partition into one contiguous buffer whose per-destination subslices
	// are the send lists.
	span := maxP - minP + 1
	bucketOf := func(t Tuple) int {
		if span <= 0 || maxP < minP {
			return 0
		}
		b := int((t.Parent - minP) * int64(p) / span)
		if b >= p {
			b = p - 1
		}
		return b
	}
	cnt := zeroInts(&ws.bucket, p)
	for _, t := range tuples {
		cnt[bucketOf(t)]++
	}
	if cap(ws.sendBuf) < len(tuples) {
		ws.sendBuf = make([]Tuple, len(tuples))
	}
	buf := ws.sendBuf[:len(tuples)]
	if cap(ws.send) < p {
		ws.send = make([][]Tuple, p)
	}
	send := ws.send[:p]
	off := 0
	for j := 0; j < p; j++ {
		send[j] = buf[off : off : off+cnt[j]]
		off += cnt[j]
	}
	for _, t := range tuples {
		b := bucketOf(t)
		send[b] = append(send[b], t)
	}
	world.Stats().AddWork(int64(2 * len(tuples)))
	ws.mine, ws.counts = comm.AllToAllvConcat(world, send, ws.mine, ws.counts)
	mine := ws.mine

	SortTuplesWS(&ws.tupWS, mine)
	world.Stats().AddWork(sortWork(len(mine)))

	// Global positions: buckets are ordered by parent label, which matches
	// rank order, so an exclusive prefix sum of bucket sizes gives each
	// bucket's starting position.
	offset, _ := comm.ExScan(world, int64(len(mine)))

	// Route (vertex, label) pairs back to the vertex owners, again as a
	// stable two-pass counting partition (stable in sorted order, so each
	// destination's pairs arrive index-ordered per source).
	ocnt := zeroInts(&ws.bucket, p)
	if cap(ws.owners) < len(mine) {
		ws.owners = make([]int, len(mine))
	}
	owners := ws.owners[:len(mine)] // fully overwritten below, no zeroing
	for k, t := range mine {
		o := lnext.D.OwnerOf(t.Vertex)
		owners[k] = o
		ocnt[o]++
	}
	if cap(ws.backBuf) < len(mine) {
		ws.backBuf = make([]Entry, len(mine))
	}
	bbuf := ws.backBuf[:len(mine)]
	if cap(ws.back) < p {
		ws.back = make([][]Entry, p)
	}
	back := ws.back[:p]
	off = 0
	for j := 0; j < p; j++ {
		back[j] = bbuf[off : off : off+ocnt[j]]
		off += ocnt[j]
	}
	for k, t := range mine {
		back[owners[k]] = append(back[owners[k]], Entry{Ind: t.Vertex, Val: nv + offset + int64(k)})
	}
	world.Stats().AddWork(int64(2 * len(mine)))
	ws.ents, ws.entCnt = comm.AllToAllvConcat(world, back, ws.ents, ws.entCnt)

	// Every tuple left from its vertex's owner and its label returns there,
	// so the pairs received are exactly this rank's lnext entries: each
	// label drops into its vertex's slot and reads back in lnext's index
	// order, with no sort. The work charge is still the sort's, because
	// the model prices the paper's SORTPERM, not this shortcut.
	labels := ws.labelSlots(lnext)
	for _, e := range ws.ents {
		labels[e.Ind-lnext.Lo] = e.Val
	}
	world.Stats().AddWork(sortWork(len(ws.ents)))
	return labeled(lnext, labels)
}

// labelSlots returns the workspace's dense label array over x's chunk,
// indexed by global index − x.Lo. It is not cleared: readers only visit
// the slots written for the current frontier.
func (ws *SortWS) labelSlots(x *SpV) []int64 {
	n := x.Hi - x.Lo
	if cap(ws.labels) < n {
		ws.labels = make([]int64, n)
	}
	return ws.labels[:n]
}

// labeled returns the vertices of lnext, in its index order, carrying
// their slots of labels as values.
func labeled(lnext *SpV, labels []int64) *SpV {
	out := NewSpV(lnext.D)
	out.Loc.Ind = make([]int, len(lnext.Loc.Ind))
	out.Loc.Val = make([]int64, len(lnext.Loc.Ind))
	copy(out.Loc.Ind, lnext.Loc.Ind)
	for k, i := range lnext.Loc.Ind {
		out.Loc.Val[k] = labels[i-lnext.Lo]
	}
	return out
}

// SortPermLocalWS is the "local sort only" ablation (the paper's §VI
// future work: trade ordering quality for the global AllToAll). Every rank
// sorts its local slice of the frontier by (parent, degree, vertex) and
// labels it within the rank-contiguous range offset by the exclusive scan
// of local counts. No tuple exchange takes place, so vertices are only
// ordered correctly relative to frontier entries on the same rank. ws is
// the per-rank workspace, as for SortPermWS.
func SortPermLocalWS(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV {
	world := lnext.D.G.World
	if cap(ws.tuples) < lnext.Loc.Len() {
		ws.tuples = make([]Tuple, 0, lnext.Loc.Len())
	}
	tuples := ws.tuples[:0]
	for k, i := range lnext.Loc.Ind {
		tuples = append(tuples, Tuple{Parent: lnext.Loc.Val[k], Degree: deg.At(i), Vertex: i})
	}
	ws.tuples = tuples
	SortTuplesWS(&ws.tupWS, tuples)
	world.Stats().AddWork(int64(len(tuples)) + sortWork(len(tuples)))
	offset, _ := comm.ExScan(world, int64(len(tuples)))
	labels := ws.labelSlots(lnext)
	for k, t := range tuples {
		labels[t.Vertex-lnext.Lo] = nv + offset + int64(k)
	}
	return labeled(lnext, labels)
}

// SortPermNone is the "no sorting" ablation: vertices are labeled in index
// order within each rank (discovery order), skipping the degree ordering
// entirely.
func SortPermNone(lnext *SpV, nv int64) *SpV {
	world := lnext.D.G.World
	offset, _ := comm.ExScan(world, int64(lnext.Loc.Len()))
	out := NewSpV(lnext.D)
	for k, i := range lnext.Loc.Ind {
		out.Loc.Append(i, nv+offset+int64(k))
	}
	world.Stats().AddWork(int64(lnext.Loc.Len()))
	return out
}

// DegreeVec computes the distributed degree vector D of the graph G(A):
// every rank's off-diagonal entry counts per local row of its block, which
// NewMat took while copying the rows, are reduce-scattered along the
// processor row so each rank ends up with the degrees of its own vector
// chunk. The charge is still the block walk the paper's code counts them
// with. Collective.
func DegreeVec(m *Mat) *Vec {
	g := m.D.G
	g.World.Stats().AddWork(int64(m.Block.NNZ()))

	// Reduce-scatter along the processor row: slice local counts by the
	// sub-chunk boundaries of this row block and exchange. Every received
	// piece has this rank's chunk length, so the concatenated receive
	// buffer folds with a stride.
	send := make([][]int64, g.Pc)
	for j := 0; j < g.Pc; j++ {
		lo := m.D.SubStart(g.MyRow, j) - m.RowLo
		hi := len(m.deg)
		if j < g.Pc-1 {
			hi = m.D.SubStart(g.MyRow, j+1) - m.RowLo
		}
		send[j] = m.deg[lo:hi]
	}
	recv, counts := comm.AllToAllvConcat(g.Row, send, nil, nil)
	out := NewVec(m.D, 0)
	pos := 0
	for _, n := range counts {
		for k := 0; k < n; k++ {
			out.Data[k] += recv[pos+k]
		}
		pos += n
	}
	g.World.Stats().AddWork(int64(len(recv)))
	return out
}
