package distmat

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/graphgen"
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

// transposeCSC is the counting-sort transpose the bottom-up kernel's row
// view was built with before NewMat built the view itself, kept as its
// oracle. Rows within each output column come out ascending because the
// input columns are visited in ascending order; an empty block keeps a nil
// Row, as NewMat leaves it.
func transposeCSC(a *spmat.CSC) *spmat.CSC {
	ptr := make([]int, a.Rows+1)
	for _, r := range a.Row {
		ptr[r+1]++
	}
	for i := 0; i < a.Rows; i++ {
		ptr[i+1] += ptr[i]
	}
	var rows []int32
	if len(a.Row) > 0 {
		rows = make([]int32, len(a.Row))
	}
	next := append([]int(nil), ptr...)
	for j := 0; j < a.Cols; j++ {
		for _, r := range a.Column(j) {
			rows[next[r]] = int32(j)
			next[r]++
		}
	}
	return &spmat.CSC{Rows: a.Cols, Cols: a.Rows, ColPtr: ptr, Row: rows}
}

// walkDegrees is the block walk DegreeVec counted each local row's
// off-diagonal entries with, kept as the oracle of NewMat's counts.
func walkDegrees(m *Mat) []int64 {
	local := make([]int64, m.RowHi-m.RowLo)
	for lcol := 0; lcol < m.Block.Cols; lcol++ {
		for _, lrow := range m.Block.Column(lcol) {
			if m.RowLo+int(lrow) != m.ColLo+lcol {
				local[lrow]++
			}
		}
	}
	return local
}

// refSetup replays the block build this package had before NewMat built
// the row view and the degrees in one pass: the coordinate block and its
// charge, DegreeVec's block walk, charge and reduce-scatter, and the
// transpose with its charges that the first bottom-up level ran.
// bottomUpReady is called right before that first level.
func refSetup(d *grid.Dist, a *spmat.CSR, hyper bool) (m *Mat, deg *Vec, bottomUpReady func()) {
	block, scanned := coordsBlock(d, a)
	m = &Mat{D: d, Block: block}
	m.RowLo, m.RowHi = d.MyRowRange()
	m.ColLo, m.ColHi = d.MyColRange()
	stats := d.G.World.Stats()
	stats.AddWork(int64(scanned))
	if hyper {
		m.EnableDCSC()
	}

	local := walkDegrees(m)
	stats.AddWork(int64(m.Block.NNZ()))
	g := d.G
	send := make([][]int64, g.Pc)
	for j := 0; j < g.Pc; j++ {
		lo := d.SubStart(g.MyRow, j) - m.RowLo
		hi := len(local)
		if j < g.Pc-1 {
			hi = d.SubStart(g.MyRow, j+1) - m.RowLo
		}
		send[j] = local[lo:hi]
	}
	recv, counts := comm.AllToAllvConcat(g.Row, send, nil, nil)
	deg = NewVec(d, 0)
	pos := 0
	for _, n := range counts {
		for k := 0; k < n; k++ {
			deg.Data[k] += recv[pos+k]
		}
		pos += n
	}
	stats.AddWork(int64(len(recv)))

	bottomUpReady = func() {
		rt := transposeCSC(m.Block)
		stats.AddWork(int64(2*m.Block.NNZ() + m.Block.Rows + m.Block.Cols))
		if hyper {
			m.rtDCSC = spmat.DCSCFromCSC(rt)
			stats.AddWork(int64(rt.NNZ() + rt.Cols))
		} else {
			m.rt = rt
		}
		m.buCharged = true
	}
	return m, deg, bottomUpReady
}

// setupRun is one distributed set-up followed by two bottom-up levels (the
// second must not charge the view again), through NewMat and DegreeVec or
// through the refSetup replay. It returns every rank's degree chunk and
// level outputs, and its tally.Stats. On the NewMat path it also checks the
// row view against the transpose oracle, the stored degrees against the
// block walk, and what the first level keeps of the view.
func setupRun(t *testing.T, name string, a *spmat.CSR, p int, hyper, ref bool) ([][]int64, [][]Sp, []tally.Stats) {
	t.Helper()
	degs := make([][]int64, p)
	levels := make([][]Sp, p)
	errs := make(chan string, 3*p)
	stats := comm.Run(p, nil, func(c *comm.Comm) {
		d := grid.NewDist(grid.Square(c), a.N)
		c.Stats().SetPhase(tally.Setup)
		var m *Mat
		var D *Vec
		ready := func() {}
		if ref {
			m, D, ready = refSetup(d, a, hyper)
		} else {
			m = NewMat(d, a)
			if !reflect.DeepEqual(m.rt, transposeCSC(m.Block)) {
				errs <- fmt.Sprintf("%s p=%d rank %d: row view differs from the transposed block", name, p, c.Rank())
			}
			if !reflect.DeepEqual(m.deg, walkDegrees(m)) {
				errs <- fmt.Sprintf("%s p=%d rank %d: degrees %v, block walk %v", name, p, c.Rank(), m.deg, walkDegrees(m))
			}
			if hyper {
				m.EnableDCSC()
			}
			D = DegreeVec(m)
		}
		degs[c.Rank()] = D.Data
		vis := NewVec(d, -1)
		x := NewSpV(d)
		for v := x.Lo; v < x.Hi; v++ {
			if v%5 == 0 {
				x.Loc.Append(v, int64(v))
				vis.Set(v, 0)
			}
		}
		c.Stats().SetPhase(tally.OrderingSpMSpV)
		ready()
		for l := 0; l < 2; l++ {
			levels[c.Rank()] = append(levels[c.Rank()], BottomUpStep(m, x, vis, false).Loc)
		}
		if !ref {
			var want any = transposeCSC(m.Block)
			var got any = m.rt
			if hyper {
				want, got = spmat.DCSCFromCSC(transposeCSC(m.Block)), m.rtDCSC
				if m.rt != nil {
					errs <- fmt.Sprintf("%s p=%d rank %d: hypersparse block kept its dense row view", name, p, c.Rank())
				}
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Sprintf("%s p=%d rank %d hyper=%v: bottom-up view differs from the oracle's", name, p, c.Rank(), hyper)
			}
		}
	})
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := make([]tally.Stats, len(stats))
	for k, s := range stats {
		st[k] = *s
	}
	return degs, levels, st
}

// TestBlockBuildMatchesTransposeOracle pins the one-pass block build at
// p = 1, 4, 9 and 16, with CSC and DCSC blocks, on suite analogs and a
// component-heavy graph: NewMat's row view is the transposed block, its
// degrees are the block walk's, and a set-up plus two bottom-up levels give
// the degree vector, the level outputs and every rank's full tally.Stats of
// the build it replaced.
func TestBlockBuildMatchesTransposeOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *spmat.CSR
	}{
		{"ldoor", graphgen.SuiteByName("ldoor").Build(12)},
		{"Nm7", graphgen.SuiteByName("Nm7").Build(8)},
		{"multi-component", graphgen.MultiComponent(10, 40, 6, 3)},
	} {
		for _, p := range []int{1, 4, 9, 16} {
			for _, hyper := range []bool{false, true} {
				gotDeg, gotLevels, gotStats := setupRun(t, tc.name, tc.a, p, hyper, false)
				wantDeg, wantLevels, wantStats := setupRun(t, tc.name, tc.a, p, hyper, true)
				if !reflect.DeepEqual(gotDeg, wantDeg) || !reflect.DeepEqual(gotLevels, wantLevels) {
					t.Errorf("%s p=%d hyper=%v: degrees or bottom-up outputs differ from the replay", tc.name, p, hyper)
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Errorf("%s p=%d hyper=%v: modelled charges differ from the replay", tc.name, p, hyper)
				}
			}
		}
	}
}
