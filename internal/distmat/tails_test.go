package distmat

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/psort"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// The sort-free BFS tails — the accumulator behind SpMSpV's local kernels
// and row-partial merge, and the return leg of SORTPERM — are pinned to the
// sort-based code they replaced, kept below as test oracles (folding with min
// like the kernels).

// refMergeEntries is the merge routeRowPartials ran before the heap merge: one
// stable keyed sort of the concatenated runs by index, then a min-fold of
// duplicate indices.
func refMergeEntries(all []Entry, dst *Sp, ws *psort.Scratch[Entry]) {
	if len(all) == 0 {
		return
	}
	psort.KeyedWS(ws, all, func(e Entry) uint64 { return uint64(e.Ind) }, 1)
	dst.Ind = make([]int, 0, len(all))
	dst.Val = make([]int64, 0, len(all))
	for _, e := range all {
		if n := dst.Len(); n > 0 && dst.Ind[n-1] == e.Ind {
			dst.Val[n-1] = min(dst.Val[n-1], e.Val)
		} else {
			dst.Append(e.Ind, e.Val)
		}
	}
}

// runHeap is the reusable scratch of refMergeRuns: a read cursor and an end
// per run, and a binary min-heap of the runs that still hold entries,
// ordered by (index at the cursor, run).
type runHeap struct {
	pos, end []int
	heap     []int
}

// refMergeRuns is the merge routeRowPartials ran before the accumulator: the
// index-sorted runs received from the row exchange — counts[s] entries from
// source s, concatenated in source order — are merged into dst with a heap
// of run heads, keeping the minimum value of duplicate indices. Index ties
// break by source. The last run standing drains without the heap.
func refMergeRuns(all []Entry, counts []int, dst *Sp, h *runHeap) {
	if len(all) == 0 {
		return
	}
	dst.Ind = make([]int, 0, len(all))
	dst.Val = make([]int64, 0, len(all))
	h.pos, h.end, h.heap = h.pos[:0], h.end[:0], h.heap[:0]
	off := 0
	for s, c := range counts {
		h.pos = append(h.pos, off)
		off += c
		h.end = append(h.end, off)
		if c > 0 {
			h.heap = append(h.heap, s)
		}
	}
	for k := len(h.heap)/2 - 1; k >= 0; k-- {
		h.down(all, k)
	}
	for len(h.heap) > 1 {
		s := h.heap[0]
		foldEntry(dst, all[h.pos[s]])
		if h.pos[s]++; h.pos[s] == h.end[s] {
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap = h.heap[:last]
		}
		h.down(all, 0)
	}
	s := h.heap[0]
	for _, e := range all[h.pos[s]:h.end[s]] {
		foldEntry(dst, e)
	}
}

// foldEntry appends e to the index-sorted dst, or min-folds its value into
// the last entry when the index repeats.
func foldEntry(dst *Sp, e Entry) {
	if n := dst.Len(); n > 0 && dst.Ind[n-1] == e.Ind {
		dst.Val[n-1] = min(dst.Val[n-1], e.Val)
	} else {
		dst.Append(e.Ind, e.Val)
	}
}

// less orders runs a and b by the index at their cursors, then by run.
func (h *runHeap) less(all []Entry, a, b int) bool {
	ia, ib := all[h.pos[a]].Ind, all[h.pos[b]].Ind
	return ia < ib || (ia == ib && a < b)
}

// down restores the heap order below slot k.
func (h *runHeap) down(all []Entry, k int) {
	n := len(h.heap)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(all, h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(all, h.heap[c], h.heap[k]) {
			return
		}
		h.heap[k], h.heap[c] = h.heap[c], h.heap[k]
		k = c
	}
}

// refSPA is the accumulator the local kernels used before the bitmap: a
// dense value array, a mark per row, and the touched list radix-sorted on
// every drain.
type refSPA struct {
	val     []int64
	mark    []bool
	touched []int
	intWS   psort.Scratch[int]
	runs    runHeap
}

// refLocalSpMSpV is the CSC/DCSC local kernel before the bitmap (column
// looks up a block column; probe is the per-column charge of its lookup),
// with its radix-sorted drain (the old spaEmit).
func refLocalSpMSpV(m *Mat, s *refSPA, column func(int) []int32, probe int64, xj []Entry) []Entry {
	if s.val == nil {
		s.val = make([]int64, m.RowHi-m.RowLo)
		s.mark = make([]bool, m.RowHi-m.RowLo)
	}
	touchedRows := s.touched[:0]
	work := int64(len(xj))
	for _, e := range xj {
		col := column(e.Ind - m.ColLo)
		work += int64(len(col)) + probe
		for _, r := range col {
			lrow := int(r)
			if !s.mark[lrow] {
				s.mark[lrow] = true
				s.val[lrow] = e.Val
				touchedRows = append(touchedRows, lrow)
			} else {
				s.val[lrow] = min(s.val[lrow], e.Val)
			}
		}
	}
	psort.KeyedWS(&s.intWS, touchedRows, func(v int) uint64 { return uint64(v) }, 1)
	s.touched = touchedRows
	out := m.ws.out[:0]
	for _, lrow := range touchedRows {
		out = append(out, Entry{Ind: m.RowLo + lrow, Val: s.val[lrow]})
		s.mark[lrow] = false
	}
	m.ws.out = out
	work += sortWork(len(touchedRows)) + int64(len(touchedRows))
	m.D.G.World.Stats().AddWork(work)
	return out
}

// refSpMSpV is SpMSpV before the accumulator: the same collectives around
// refLocalSpMSpV and the heap merge of routeRowPartials.
func refSpMSpV(m *Mat, x *SpV, s *refSPA) *SpV {
	g := m.D.G
	ws := &m.ws
	ws.mine = packEntriesInto(&x.Loc, ws.mine)
	ws.swapped = comm.ExchangeInto(g.World, g.TransposeRank(), ws.mine, ws.swapped)
	ws.xj = comm.AllGathervConcatInto(g.Col, ws.swapped, ws.xj)
	var touched []Entry
	if m.dcsc != nil {
		touched = refLocalSpMSpV(m, s, m.dcsc.Column, 1, ws.xj)
	} else {
		touched = refLocalSpMSpV(m, s, m.Block.Column, 0, ws.xj)
	}
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
	refMergeRuns(ws.recv, ws.counts, &out.Loc, &s.runs)
	g.World.Stats().AddWork(int64(len(touched)) + int64(len(ws.recv)))
	return out
}

// sortedRun draws an index-sorted run of up to maxLen entries from the
// index pool, repeats allowed.
func sortedRun(rng *rand.Rand, maxLen int, pool []int) []Entry {
	run := make([]Entry, rng.Intn(maxLen+1))
	for k := range run {
		run[k] = Entry{Ind: pool[rng.Intn(len(pool))], Val: int64(rng.Intn(1000))}
	}
	sort.SliceStable(run, func(a, b int) bool { return run[a].Ind < run[b].Ind })
	return run
}

// TestMergeRunsMatchesSortOracle pins the accumulator merge of
// routeRowPartials to the heap merge and the stable-sort merge it replaced,
// on 1–8 sources whose runs share indices (duplicates within and across
// runs, empty runs), with one accumulator and one heap reused throughout.
// Even trials draw from every index of a space of at most 80, so the drain
// scans the bitmap; odd trials draw from at most 16 indices of a space of
// 100,000 or more, so it sorts the touched list.
func TestMergeRunsMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var spa spmat.SPA
	var h runHeap
	var ws psort.Scratch[Entry]
	for sources := 1; sources <= 8; sources++ {
		for trial := 0; trial < 60; trial++ {
			lo := rng.Intn(1000)
			n := 1 + rng.Intn(80)
			pool := make([]int, n)
			for k := range pool {
				pool[k] = lo + k
			}
			if trial%2 == 1 {
				n = 100000 + rng.Intn(100000)
				pool = pool[:0]
				for k := 1 + rng.Intn(16); k > 0; k-- {
					pool = append(pool, lo+rng.Intn(n))
				}
			}
			var all []Entry
			counts := make([]int, sources)
			for s := range counts {
				run := sortedRun(rng, 40, pool)
				counts[s] = len(run)
				all = append(all, run...)
			}
			got := foldPartials(&spa, all, lo, n)
			var heap, sorted Sp
			refMergeRuns(all, counts, &heap, &h)
			refMergeEntries(append([]Entry(nil), all...), &sorted, &ws)
			if !reflect.DeepEqual(got, heap) || !reflect.DeepEqual(got, sorted) {
				t.Fatalf("sources=%d trial=%d: foldPartials = %v, heap merge %v, sort merge %v (counts %v)",
					sources, trial, got, heap, sorted, counts)
			}
		}
	}
}

// spmspvLevels runs spmspv on every rank of a p-rank grid over a sequence
// of random frontiers of a, one per density (a density of 0 is a single
// vertex), with one Mat per rank reused across them as the BFS does. It
// returns each rank's output vectors per level together with the ranks'
// modelled stats.
func spmspvLevels(p int, a *spmat.CSR, densities []float64, dcsc bool, spmspv func(m *Mat, x *SpV) *SpV) ([][]Sp, []tally.Stats) {
	out := make([][]Sp, p)
	stats := comm.Run(p, nil, func(c *comm.Comm) {
		d := grid.NewDist(grid.Square(c), a.N)
		m := NewMat(d, a)
		if dcsc {
			m.EnableDCSC()
		}
		for l, density := range densities {
			rng := rand.New(rand.NewSource(int64(7*a.N + l)))
			x := NewSpV(d)
			single := rng.Intn(a.N)
			for v := 0; v < a.N; v++ {
				in := v == single || rng.Float64() < density
				val := int64(rng.Intn(50))
				if in && x.Owns(v) {
					x.Loc.Append(v, val)
				}
			}
			out[c.Rank()] = append(out[c.Rank()], spmspv(m, x).Loc)
		}
	})
	st := make([]tally.Stats, len(stats))
	for k, s := range stats {
		st[k] = *s
	}
	return out, st
}

// TestSpMSpVMatchesSortOracle pins SpMSpV — outputs level by level and
// every modelled charge — to the kernels it replaced (marks plus a
// radix-sorted drain, then the heap merge), at p = 1, 4, 9 and 16, over CSC
// and DCSC blocks. The small matrix takes frontiers up to every vertex; the
// large one takes frontiers sparse enough that the accumulator drains by
// sort as well as by scan.
func TestSpMSpVMatchesSortOracle(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		for _, tc := range []struct {
			n         int
			densities []float64
		}{
			{37, []float64{0, 0.02, 0.3, 1, 0.6}},
			{20000, []float64{0, 0.0005, 0.002, 0.01}},
		} {
			n := tc.n
			a := randSym(int64(n+p), n, 3*n)
			for _, dcsc := range []bool{false, true} {
				got, gotStats := spmspvLevels(p, a, tc.densities, dcsc, SpMSpV)
				refs := make([]refSPA, p)
				want, wantStats := spmspvLevels(p, a, tc.densities, dcsc, func(m *Mat, x *SpV) *SpV {
					return refSpMSpV(m, x, &refs[m.D.G.World.Rank()])
				})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("p=%d n=%d dcsc=%v: outputs differ from the sort-based oracle\n got %v\nwant %v", p, n, dcsc, got, want)
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Errorf("p=%d n=%d dcsc=%v: modelled charges differ from the sort-based oracle", p, n, dcsc)
				}
			}
		}
	}
}

// refSortPermWS is the old SortPermWS: its return leg sorts the received
// (vertex, label) pairs by vertex.
func refSortPermWS(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV {
	g := lnext.D.G
	world := g.World
	p := world.Size()

	if cap(ws.tuples) < lnext.Loc.Len() {
		ws.tuples = make([]Tuple, 0, lnext.Loc.Len())
	}
	tuples := ws.tuples[:0]
	for k, i := range lnext.Loc.Ind {
		tuples = append(tuples, Tuple{Parent: lnext.Loc.Val[k], Degree: deg.At(i), Vertex: i})
	}
	ws.tuples = tuples
	world.Stats().AddWork(int64(len(tuples)))

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

	offset, _ := comm.ExScan(world, int64(len(mine)))

	ocnt := zeroInts(&ws.bucket, p)
	if cap(ws.owners) < len(mine) {
		ws.owners = make([]int, len(mine))
	}
	owners := ws.owners[:len(mine)]
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

	out := NewSpV(lnext.D)
	all := ws.ents
	var entWS psort.Scratch[Entry]
	psort.KeyedWS(&entWS, all, func(e Entry) uint64 { return uint64(e.Ind) }, 1)
	world.Stats().AddWork(sortWork(len(all)))
	out.Loc.Ind = make([]int, 0, len(all))
	out.Loc.Val = make([]int64, 0, len(all))
	for _, e := range all {
		out.Loc.Append(e.Ind, e.Val)
	}
	return out
}

// refSortPermLocalWS is the old SortPermLocalWS: it sorts the labeled
// (vertex, label) pairs back into vertex order.
func refSortPermLocalWS(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV {
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
	out := NewSpV(lnext.D)
	if cap(ws.ents) < len(tuples) {
		ws.ents = make([]Entry, 0, len(tuples))
	}
	ord := ws.ents[:0]
	for k, t := range tuples {
		ord = append(ord, Entry{Ind: t.Vertex, Val: nv + offset + int64(k)})
	}
	ws.ents = ord
	var entWS psort.Scratch[Entry]
	psort.KeyedWS(&entWS, ord, func(e Entry) uint64 { return uint64(e.Ind) }, 1)
	out.Loc.Ind = make([]int, 0, len(ord))
	out.Loc.Val = make([]int64, 0, len(ord))
	for _, e := range ord {
		out.Loc.Append(e.Ind, e.Val)
	}
	return out
}

// sortPermLevels runs label on every rank of a p-rank grid over a sequence
// of random frontiers (one per level, one workspace per rank reused across
// them, as the ordering BFS does) and returns each rank's labeled vectors
// per level together with the ranks' modelled stats. Levels alternate
// between sparse and dense frontiers, and the parent labels of some levels
// collapse to one value, so ranks and buckets go empty.
func sortPermLevels(p, n int, label func(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV) ([][]Sp, []tally.Stats) {
	const levels = 6
	out := make([][]Sp, p)
	stats := comm.Run(p, nil, func(c *comm.Comm) {
		d := grid.NewDist(grid.Square(c), n)
		ws := &SortWS{}
		for l := 0; l < levels; l++ {
			rng := rand.New(rand.NewSource(int64(1000*n + l)))
			density := []float64{0.05, 0.6, 1, 0.3, 0, 0.9}[l]
			parents := 1 + rng.Intn(12)
			if l == 3 {
				parents = 1
			}
			deg := NewVec(d, 0)
			lnext := NewSpV(d)
			for v := 0; v < n; v++ {
				in := rng.Float64() < density
				dv, pv := int64(rng.Intn(9)), int64(40+rng.Intn(parents))
				if deg.Owns(v) {
					deg.Set(v, dv)
					if in {
						lnext.Loc.Append(v, pv)
					}
				}
			}
			r := label(ws, lnext, deg, int64(100*l))
			out[c.Rank()] = append(out[c.Rank()], r.Loc)
		}
	})
	st := make([]tally.Stats, len(stats))
	for k, s := range stats {
		st[k] = *s
	}
	return out, st
}

// TestSortPermReturnLegMatchesSortOracle pins SortPermWS and
// SortPermLocalWS — labels, vertex order and every modelled charge — to the
// sort-based return leg at p = 1, 4, 9 and 16.
func TestSortPermReturnLegMatchesSortOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		got, ref func(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV
	}{
		{"SortPermWS", SortPermWS, refSortPermWS},
		{"SortPermLocalWS", SortPermLocalWS, refSortPermLocalWS},
	} {
		for _, p := range []int{1, 4, 9, 16} {
			for _, n := range []int{3, 37, 200} {
				got, gotStats := sortPermLevels(p, n, tc.got)
				want, wantStats := sortPermLevels(p, n, tc.ref)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s p=%d n=%d: labels differ from the sort-based oracle\n got %v\nwant %v", tc.name, p, n, got, want)
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Errorf("%s p=%d n=%d: modelled charges differ from the sort-based oracle", tc.name, p, n)
				}
			}
		}
	}
}
