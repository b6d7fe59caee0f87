package distmat

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// coordsBlock is the coordinate-list block extraction NewMat used before it
// scattered CSR windows directly, kept as the equivalence oracle: scan the
// owned rows, collect the (row, col) pairs inside the column range, then
// bucket them by column and sort and deduplicate each column. It returns
// the block and the number of entries scanned (the modelled work charge).
func coordsBlock(d *grid.Dist, a *spmat.CSR) (*spmat.CSC, int) {
	rowLo, rowHi := d.MyRowRange()
	colLo, colHi := d.MyColRange()
	var rr, cc []int
	scanned := 0
	for i := rowLo; i < rowHi; i++ {
		row := a.Row(i)
		scanned += len(row)
		for _, j := range row {
			if j >= colLo && j < colHi {
				rr = append(rr, i-rowLo)
				cc = append(cc, j-colLo)
			}
		}
	}
	rows, cols := rowHi-rowLo, colHi-colLo
	counts := make([]int, cols+1)
	for _, c := range cc {
		counts[c+1]++
	}
	ptr := make([]int, cols+1)
	for j := 0; j < cols; j++ {
		ptr[j+1] = ptr[j] + counts[j+1]
	}
	rowIdx := make([]int, len(rr))
	next := append([]int(nil), ptr...)
	for k, c := range cc {
		rowIdx[next[c]] = rr[k]
		next[c]++
	}
	outPtr := make([]int, cols+1)
	w := 0
	for j := 0; j < cols; j++ {
		col := rowIdx[ptr[j]:ptr[j+1]]
		sort.Ints(col)
		start := w
		for _, r := range col {
			if w > start && rowIdx[w-1] == r {
				continue
			}
			rowIdx[w] = r
			w++
		}
		outPtr[j+1] = w
	}
	var row32 []int32 // nil for an empty block, as NewMat leaves it
	for _, r := range rowIdx[:w] {
		row32 = append(row32, int32(r))
	}
	return &spmat.CSC{Rows: rows, Cols: cols, ColPtr: outPtr, Row: row32}, scanned
}

// randPattern builds a random pattern, symmetric or not.
func randPattern(seed int64, n, m int, sym bool) *spmat.CSR {
	rng := rand.New(rand.NewSource(seed))
	var es []spmat.Coord
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		es = append(es, spmat.Coord{Row: i, Col: j, Val: 1})
		if sym {
			es = append(es, spmat.Coord{Row: j, Col: i, Val: 1})
		}
	}
	return spmat.FromCoords(n, es, true)
}

// checkNewMatMatchesCoords asserts that on every rank NewMat's block, its
// DCSC form and its modelled work charge equal the coordinate oracle's.
func checkNewMatMatchesCoords(t *testing.T, name string, a *spmat.CSR, p int) {
	t.Helper()
	errs := make(chan string, p)
	comm.Run(p, nil, func(c *comm.Comm) {
		d := grid.NewDist(grid.Square(c), a.N)
		want, scanned := coordsBlock(d, a)
		before := c.Stats().ClockNs()
		m := NewMat(d, a)
		charged := c.Stats().ClockNs() - before
		ref := tally.NewStats(c.Model())
		ref.AddWork(int64(scanned))
		switch {
		case !reflect.DeepEqual(m.Block, want):
			errs <- fmt.Sprintf("%s p=%d rank %d: block %+v, oracle %+v", name, p, c.Rank(), m.Block, want)
		case charged != ref.ClockNs():
			errs <- fmt.Sprintf("%s p=%d rank %d: charged %v ns, oracle %v ns", name, p, c.Rank(), charged, ref.ClockNs())
		default:
			m.EnableDCSC()
			if !reflect.DeepEqual(m.dcsc, spmat.DCSCFromCSC(want)) {
				errs <- fmt.Sprintf("%s p=%d rank %d: DCSC differs from the oracle block's", name, p, c.Rank())
			}
		}
	})
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestNewMatMatchesCoordsOracle pins NewMat's block byte for byte to the
// coordinate-list extraction it replaced.
func TestNewMatMatchesCoordsOracle(t *testing.T) {
	star := func(n int) *spmat.CSR { // hub row 0 touches every column
		var es []spmat.Coord
		for j := 0; j < n; j++ {
			es = append(es, spmat.Coord{Row: 0, Col: j, Val: 1}, spmat.Coord{Row: j, Col: 0, Val: 1})
		}
		return spmat.FromCoords(n, es, true)
	}
	diag := func(n int) *spmat.CSR {
		var es []spmat.Coord
		for i := 0; i < n; i++ {
			es = append(es, spmat.Coord{Row: i, Col: i, Val: 1})
		}
		return spmat.FromCoords(n, es, true)
	}
	sparseRows := func(n int) *spmat.CSR { // only every third row has entries
		var es []spmat.Coord
		for i := 0; i < n; i += 3 {
			es = append(es, spmat.Coord{Row: i, Col: (i * 7) % n, Val: 1}, spmat.Coord{Row: i, Col: n - 1, Val: 1})
		}
		return spmat.FromCoords(n, es, true)
	}
	type patternCase struct {
		name string
		a    *spmat.CSR
	}
	cases := []patternCase{
		{"empty-matrix", spmat.FromCoords(0, nil, true)},
		{"no-entries", spmat.FromCoords(17, nil, true)},
		{"diagonal", diag(23)},
		{"hub-row", star(31)},
		{"empty-rows", sparseRows(40)},
		{"n1", diag(1)},
		{"n2-hub", star(2)},
		{"n3", randPattern(9, 3, 4, false)},
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 10 + int(seed)*13
		cases = append(cases,
			patternCase{fmt.Sprintf("sym-%d", seed), randPattern(seed, n, 3*n, true)},
			patternCase{fmt.Sprintf("nonsym-%d", seed), randPattern(100+seed, n, 4*n, false)})
	}
	for _, tc := range cases {
		for _, p := range []int{1, 4, 9, 16} {
			checkNewMatMatchesCoords(t, tc.name, tc.a, p)
		}
	}
}
