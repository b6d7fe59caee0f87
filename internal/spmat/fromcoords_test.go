package spmat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fromCoordsOracle is FromCoords as it was before rows that arrive strictly
// ascending skipped the sort and the scatter arrays became the result, kept
// verbatim as the equivalence oracle: every row sorted with sort.Sort, then
// merged into fresh, exactly sized arrays.
func fromCoordsOracle(n int, entries []Coord, pattern bool) *CSR {
	counts := make([]int, n+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			panic(fmt.Sprintf("spmat: entry (%d,%d) outside %d×%d", e.Row, e.Col, n, n))
		}
		counts[e.Row+1]++
	}
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + counts[i+1]
	}
	cols := make([]int, len(entries))
	vals := make([]float64, len(entries))
	next := append([]int(nil), rowPtr...)
	for _, e := range entries {
		p := next[e.Row]
		cols[p] = e.Col
		vals[p] = e.Val
		next[e.Row]++
	}
	// Sort each row and merge duplicates.
	outPtr := make([]int, n+1)
	outCols := cols[:0]
	outVals := vals
	w := 0
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		row := cols[lo:hi]
		rvals := vals[lo:hi]
		sort.Sort(&colValSorter{row, rvals})
		start := w
		for k := 0; k < len(row); k++ {
			if w > start && outCols[w-1] == row[k] {
				outVals[w-1] += rvals[k]
				continue
			}
			outCols = outCols[:w+1]
			outCols[w] = row[k]
			outVals[w] = rvals[k]
			w++
		}
		outPtr[i+1] = w
	}
	a := &CSR{N: n, RowPtr: outPtr, Col: append([]int(nil), outCols[:w]...)}
	if !pattern {
		a.Val = append([]float64(nil), outVals[:w]...)
	}
	return a
}

// coordOrders are the entry orders the equivalence test feeds: canonical
// row-major and column-major (the sort-free path, unless a row holds
// duplicates), their reversals, rows grouped with columns in draw order,
// and a shuffle.
var coordOrders = []struct {
	name string
	less func(a, b Coord) bool // nil: shuffle
}{
	{"row-major", func(a, b Coord) bool { return a.Row < b.Row || a.Row == b.Row && a.Col < b.Col }},
	{"col-major", func(a, b Coord) bool { return a.Col < b.Col || a.Col == b.Col && a.Row < b.Row }},
	{"row-reversed", func(a, b Coord) bool { return a.Row > b.Row || a.Row == b.Row && a.Col > b.Col }},
	{"col-reversed", func(a, b Coord) bool { return a.Col > b.Col || a.Col == b.Col && a.Row > b.Row }},
	{"rows-only", func(a, b Coord) bool { return a.Row < b.Row }},
	{"shuffled", nil},
}

// randomCoords draws up to m distinct positions of an n×n matrix, repeats
// each dupFrac of the time up to maxCopies times in all, and orders the
// list. Values span many magnitudes so a changed summation order of
// duplicates shows in the low bits.
func randomCoords(rng *rand.Rand, n, m, maxCopies int, dupFrac float64, order func(a, b Coord) bool) []Coord {
	var out []Coord
	if n == 0 {
		return out
	}
	for k := 0; k < m; k++ {
		pos := Coord{Row: rng.Intn(n), Col: rng.Intn(n)}
		copies := 1
		if rng.Float64() < dupFrac {
			copies += rng.Intn(maxCopies)
		}
		for c := 0; c < copies; c++ {
			pos.Val = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(33)-16))
			out = append(out, pos)
		}
	}
	if order == nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	} else {
		sort.SliceStable(out, func(i, j int) bool { return order(out[i], out[j]) })
	}
	return out
}

// TestFromCoordsMatchesOracle pins FromCoords to the sort-everything oracle
// on random inputs: byte-identical RowPtr, Col and Val (reflect.DeepEqual,
// so an empty result's nil Col and Val are pinned too) with and without
// values, duplicates of up to 4 copies, in every order of coordOrders.
func TestFromCoordsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(t *testing.T, n int, entries []Coord, pattern bool) {
		t.Helper()
		in := append([]Coord(nil), entries...)
		got := FromCoords(n, in, pattern)
		want := fromCoordsOracle(n, entries, pattern)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d pattern=%v entries=%v:\n got %+v\nwant %+v", n, pattern, entries, got, want)
		}
	}
	for _, ord := range coordOrders {
		t.Run(ord.name, func(t *testing.T) {
			for _, pattern := range []bool{false, true} {
				check(t, 0, nil, pattern)
				check(t, 0, []Coord{}, pattern)
				check(t, 5, nil, pattern)
				for iter := 0; iter < 300; iter++ {
					n := 1 + rng.Intn(40)
					m := rng.Intn(3 * n)
					if iter%3 == 0 {
						// Rows longer than sort.Sort's insertion-sort
						// cutoff, where equal keys can reorder.
						n = 1 + rng.Intn(4)
						m = rng.Intn(25 * n)
					}
					dupFrac := []float64{0, 0.1, 0.5, 1}[iter%4]
					check(t, n, randomCoords(rng, n, m, 4, dupFrac, ord.less), pattern)
				}
			}
		})
	}
}

// TestFromCoordsCanonicalAllocs: canonical input takes the sort-free path
// and returns its scatter arrays, so the whole build is RowPtr, the scatter
// cursor, Col, Val and the CSR header — no per-row sorter, no final copies.
func TestFromCoordsCanonicalAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := randomCoords(rng, 200, 2000, 1, 0, coordOrders[0].less)
	// Drop the duplicate positions random draws produce, so every row is
	// strictly ascending.
	uniq := entries[:0]
	for _, e := range entries {
		if len(uniq) > 0 && uniq[len(uniq)-1].Row == e.Row && uniq[len(uniq)-1].Col == e.Col {
			continue
		}
		uniq = append(uniq, e)
	}
	if allocs := testing.AllocsPerRun(20, func() { FromCoords(200, uniq, false) }); allocs > 5 {
		t.Errorf("canonical FromCoords: %v allocs/run, want at most 5", allocs)
	}
}
