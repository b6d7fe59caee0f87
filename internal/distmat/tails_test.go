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
	"repro/internal/semiring"
	"repro/internal/spvec"
	"repro/internal/tally"
)

// The sort-free BFS tails — the run merge of routeRowPartials and the
// return leg of SORTPERM — are pinned to the sort-based code they replaced,
// kept below verbatim as test oracles.

// refMergeEntries is the old routeRowPartials merge: one stable keyed sort
// of the concatenated runs by index, then a fold of duplicate indices in
// that order.
func refMergeEntries[S semiring.Semiring](all []Entry, dst *spvec.Sp, sr S, ws *psort.Scratch[Entry]) {
	if len(all) == 0 {
		return
	}
	psort.KeyedWS(ws, all, func(e Entry) uint64 { return uint64(e.Ind) }, 1)
	dst.Ind = make([]int, 0, len(all))
	dst.Val = make([]int64, 0, len(all))
	for _, e := range all {
		if n := dst.Len(); n > 0 && dst.Ind[n-1] == e.Ind {
			dst.Val[n-1] = sr.Add(dst.Val[n-1], e.Val)
		} else {
			dst.Append(e.Ind, e.Val)
		}
	}
}

// firstWins is an order-sensitive fold: it keeps the first value, so a
// merge that folds duplicates out of source order shows in the result.
type firstWins struct{}

func (firstWins) Multiply(x int64) int64 { return x }
func (firstWins) Add(a, b int64) int64   { return a }
func (firstWins) Identity() int64        { return math.MinInt64 }
func (firstWins) Name() string           { return "first" }

// sortedRun draws an index-sorted run of up to maxLen entries over
// [0, span), repeats allowed.
func sortedRun(rng *rand.Rand, maxLen, span int) []Entry {
	run := make([]Entry, rng.Intn(maxLen+1))
	for k := range run {
		run[k] = Entry{Ind: rng.Intn(span), Val: int64(rng.Intn(1000))}
	}
	sort.SliceStable(run, func(a, b int) bool { return run[a].Ind < run[b].Ind })
	return run
}

// TestMergeRunsMatchesSortOracle pins mergeRuns to the stable-sort merge on
// 1–8 sources whose runs share indices (duplicates within and across runs,
// empty runs), under order-insensitive and order-sensitive folds, with one
// heap reused throughout.
func TestMergeRunsMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var h runHeap
	var ws psort.Scratch[Entry]
	for sources := 1; sources <= 8; sources++ {
		for trial := 0; trial < 60; trial++ {
			span := 1 + rng.Intn(80)
			var all []Entry
			counts := make([]int, sources)
			for s := range counts {
				run := sortedRun(rng, 40, span)
				counts[s] = len(run)
				all = append(all, run...)
			}
			check := func(name string, got, want spvec.Sp) {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sources=%d trial=%d %s: mergeRuns = %v, want %v (counts %v)", sources, trial, name, got, want, counts)
				}
			}
			var got, want spvec.Sp
			mergeRuns(all, counts, &got, firstWins{}, &h)
			refMergeEntries(append([]Entry(nil), all...), &want, firstWins{}, &ws)
			check("first", got, want)
			got, want = spvec.Sp{}, spvec.Sp{}
			mergeRuns(all, counts, &got, semiring.PlusTimes{}, &h)
			refMergeEntries(append([]Entry(nil), all...), &want, semiring.PlusTimes{}, &ws)
			check("plus", got, want)
			got, want = spvec.Sp{}, spvec.Sp{}
			mergeRuns(all, counts, &got, semiring.Select2ndMin{}, &h)
			refMergeEntries(append([]Entry(nil), all...), &want, semiring.Select2ndMin{}, &ws)
			check("min", got, want)
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
		ws.tuples = make([]spvec.Tuple, 0, lnext.Loc.Len())
	}
	tuples := ws.tuples[:0]
	for k, i := range lnext.Loc.Ind {
		tuples = append(tuples, spvec.Tuple{Parent: lnext.Loc.Val[k], Degree: deg.At(i), Vertex: i})
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
	bucketOf := func(t spvec.Tuple) int {
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
		ws.sendBuf = make([]spvec.Tuple, len(tuples))
	}
	buf := ws.sendBuf[:len(tuples)]
	if cap(ws.send) < p {
		ws.send = make([][]spvec.Tuple, p)
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

	spvec.SortTuplesWS(&ws.tupWS, mine)
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
		ws.tuples = make([]spvec.Tuple, 0, lnext.Loc.Len())
	}
	tuples := ws.tuples[:0]
	for k, i := range lnext.Loc.Ind {
		tuples = append(tuples, spvec.Tuple{Parent: lnext.Loc.Val[k], Degree: deg.At(i), Vertex: i})
	}
	ws.tuples = tuples
	spvec.SortTuplesWS(&ws.tupWS, tuples)
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
func sortPermLevels(p, n int, label func(ws *SortWS, lnext *SpV, deg *Vec, nv int64) *SpV) ([][]spvec.Sp, []tally.Stats) {
	const levels = 6
	out := make([][]spvec.Sp, p)
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
