package distmat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/graphgen"
	"repro/internal/grid"
	"repro/internal/spmat"
)

// randSym builds a random symmetric pattern matrix.
func randSym(seed int64, n, m int) *spmat.CSR {
	rng := rand.New(rand.NewSource(seed))
	var es []spmat.Coord
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		es = append(es, spmat.Coord{Row: i, Col: j, Val: 1}, spmat.Coord{Row: j, Col: i, Val: 1})
	}
	return spmat.FromCoords(n, es, true)
}

// onGrid runs f on a p-rank square grid with a distribution for length n.
func onGrid(t *testing.T, p, n int, f func(d *grid.Dist)) {
	t.Helper()
	comm.Run(p, nil, func(c *comm.Comm) {
		g := grid.Square(c)
		f(grid.NewDist(g, n))
	})
}

func TestNewMatCoversAllEntries(t *testing.T) {
	a := randSym(1, 40, 120)
	for _, p := range []int{1, 4, 9} {
		var total int64
		var mu = make(chan int64, p)
		onGrid(t, p, a.N, func(d *grid.Dist) {
			m := NewMat(d, a)
			mu <- int64(m.Block.NNZ())
		})
		for i := 0; i < p; i++ {
			total += <-mu
		}
		if total != int64(a.NNZ()) {
			t.Errorf("p=%d: blocks hold %d entries, matrix has %d", p, total, a.NNZ())
		}
	}
}

func TestNewMatDimensionMismatchPanics(t *testing.T) {
	a := randSym(1, 10, 20)
	comm.Run(1, nil, func(c *comm.Comm) {
		g := grid.Square(c)
		d := grid.NewDist(g, 11)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		NewMat(d, a)
	})
}

func TestVecOwnershipPartitions(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		for _, n := range []int{1, 7, 29, 100} {
			if p > n { // grids larger than the vector still must partition
				continue
			}
			covered := make([]int32, n)
			ch := make(chan [2]int, p)
			onGrid(t, p, n, func(d *grid.Dist) {
				lo, hi := d.MyRange()
				ch <- [2]int{lo, hi}
			})
			for i := 0; i < p; i++ {
				r := <-ch
				for v := r[0]; v < r[1]; v++ {
					covered[v]++
				}
			}
			for v, cnt := range covered {
				if cnt != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, v, cnt)
				}
			}
		}
	}
}

func TestOwnerOfMatchesMyRange(t *testing.T) {
	for _, p := range []int{1, 4, 9} {
		for _, n := range []int{5, 17, 64} {
			onGrid(t, p, n, func(d *grid.Dist) {
				lo, hi := d.MyRange()
				me := d.G.World.Rank()
				for v := lo; v < hi; v++ {
					if got := d.OwnerOf(v); got != me {
						t.Errorf("p=%d n=%d: OwnerOf(%d) = %d, want %d", p, n, v, got, me)
					}
				}
			})
		}
	}
}

func TestVecGather(t *testing.T) {
	n := 23
	for _, p := range []int{1, 4, 9} {
		var full []int64
		onGrid(t, p, n, func(d *grid.Dist) {
			v := NewVec(d, 0)
			for g := v.Lo; g < v.Hi; g++ {
				v.Set(g, int64(g*10))
			}
			got := v.Gather(0)
			if d.G.World.Rank() == 0 {
				full = got
			}
		})
		if len(full) != n {
			t.Fatalf("p=%d: gathered %d", p, len(full))
		}
		for g, x := range full {
			if x != int64(g*10) {
				t.Errorf("p=%d: full[%d] = %d", p, g, x)
			}
		}
	}
}

func TestSpVSingleAndNnz(t *testing.T) {
	onGrid(t, 4, 20, func(d *grid.Dist) {
		x := NewSpVSingle(d, 13, 99)
		if got := x.Nnz(); got != 1 {
			t.Errorf("nnz = %d", got)
		}
		holders := comm.AllReduceSum(d.G.World, int64(x.Loc.Len()))
		if holders != 1 {
			t.Errorf("%d ranks hold the entry", holders)
		}
	})
}

func TestSpVSelectSetGather(t *testing.T) {
	onGrid(t, 4, 16, func(d *grid.Dist) {
		r := NewVec(d, -1)
		// Sparse vector with every even index.
		x := NewSpV(d)
		for g := x.Lo; g < x.Hi; g++ {
			if g%2 == 0 {
				x.Loc.Append(g, int64(g))
			}
		}
		// Mark indices < 8 as visited in R.
		for g := r.Lo; g < r.Hi; g++ {
			if g < 8 {
				r.Set(g, 7)
			}
		}
		x.SelectUnlabeled(r)
		for _, i := range x.Loc.Ind {
			if i < 8 || i%2 != 0 {
				t.Errorf("selected %d", i)
			}
		}
		x.SetDense(r)
		full := r.Gather(0)
		if d.G.World.Rank() == 0 {
			for g, v := range full {
				switch {
				case g < 8 && v != 7:
					t.Errorf("r[%d] = %d, want 7", g, v)
				case g >= 8 && g%2 == 0 && v != int64(g):
					t.Errorf("r[%d] = %d, want %d", g, v, g)
				case g >= 8 && g%2 == 1 && v != -1:
					t.Errorf("r[%d] = %d, want -1", g, v)
				}
			}
		}
		// GatherDense pulls values back from R.
		x.GatherDense(r)
		for k, i := range x.Loc.Ind {
			if x.Loc.Val[k] != int64(i) {
				t.Errorf("gathered val[%d] = %d", i, x.Loc.Val[k])
			}
		}
	})
}

func TestArgMinBy(t *testing.T) {
	onGrid(t, 4, 12, func(d *grid.Dist) {
		deg := NewVec(d, 0)
		degs := []int64{5, 2, 8, 2, 9, 1, 4, 1, 7, 3, 6, 2}
		for g := deg.Lo; g < deg.Hi; g++ {
			deg.Set(g, degs[g])
		}
		x := NewSpV(d)
		for g := x.Lo; g < x.Hi; g++ {
			if g >= 3 { // restrict to suffix: min degree 1 at vertices 5 and 7
				x.Loc.Append(g, 0)
			}
		}
		if got := x.ArgMinKBy(deg, 1); !reflect.DeepEqual(got, []KeyedInd{{Key: 1, Ind: 5}}) {
			t.Errorf("argmin = %v, want vertex 5 (tie with 7 broken by id)", got)
		}
		if got := x.ArgMinKBy(deg, 2); !reflect.DeepEqual(got, []KeyedInd{{Key: 1, Ind: 5}, {Key: 1, Ind: 7}}) {
			t.Errorf("argmin k=2 = %v, want vertices 5 then 7", got)
		}
	})
}

func TestArgMinByEmpty(t *testing.T) {
	onGrid(t, 4, 8, func(d *grid.Dist) {
		deg := NewVec(d, 1)
		x := NewSpV(d)
		if got := x.ArgMinKBy(deg, 1); len(got) != 0 {
			t.Errorf("empty argmin = %v", got)
		}
	})
}

// seqSpMSpVRef computes A·x over (select2nd, min) with a dense reference
// loop.
func seqSpMSpVRef(a *spmat.CSR, x map[int]int64) map[int]int64 {
	out := map[int]int64{}
	for j, xv := range x {
		// Column j of A = row j for symmetric patterns; use transpose
		// honestly: iterate all rows, check entry (i, j).
		for i := 0; i < a.N; i++ {
			row := a.Row(i)
			for _, c := range row {
				if c == j {
					if acc, ok := out[i]; ok {
						out[i] = min(acc, xv)
					} else {
						out[i] = xv
					}
				}
			}
		}
	}
	return out
}

func TestSpMSpVMatchesReference(t *testing.T) {
	a := randSym(3, 30, 70)
	// Sparse input: a few entries with distinct values.
	in := map[int]int64{2: 10, 11: 4, 17: 25, 29: 7}
	want := seqSpMSpVRef(a, in)
	for _, p := range []int{1, 4, 9, 25} {
		got := map[int]int64{}
		ch := make(chan Entry, a.N)
		onGrid(t, p, a.N, func(d *grid.Dist) {
			m := NewMat(d, a)
			x := NewSpV(d)
			for g := x.Lo; g < x.Hi; g++ {
				if v, ok := in[g]; ok {
					x.Loc.Append(g, v)
				}
			}
			y := SpMSpV(m, x)
			if !y.Loc.IsSorted() {
				t.Errorf("p=%d: output unsorted", p)
			}
			for k, i := range y.Loc.Ind {
				ch <- Entry{Ind: i, Val: y.Loc.Val[k]}
			}
		})
		close(ch)
		for e := range ch {
			if _, dup := got[e.Ind]; dup {
				t.Errorf("p=%d: index %d produced twice", p, e.Ind)
			}
			got[e.Ind] = e.Val
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("p=%d: SpMSpV mismatch\n got %v\nwant %v", p, got, want)
		}
	}
}

func TestQuickSpMSpVAnyGridMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		a := randSym(seed, n, 3*n)
		in := map[int]int64{}
		for k := 0; k < 1+rng.Intn(5); k++ {
			in[rng.Intn(n)] = int64(rng.Intn(100))
		}
		want := seqSpMSpVRef(a, in)
		p := []int{1, 4, 9}[rng.Intn(3)]
		got := map[int]int64{}
		ch := make(chan Entry, n*4)
		comm.Run(p, nil, func(c *comm.Comm) {
			d := grid.NewDist(grid.Square(c), n)
			m := NewMat(d, a)
			x := NewSpV(d)
			for g := x.Lo; g < x.Hi; g++ {
				if v, ok := in[g]; ok {
					x.Loc.Append(g, v)
				}
			}
			y := SpMSpV(m, x)
			for k, i := range y.Loc.Ind {
				ch <- Entry{Ind: i, Val: y.Loc.Val[k]}
			}
		})
		close(ch)
		for e := range ch {
			got[e.Ind] = e.Val
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSpMSpVEmptyInput(t *testing.T) {
	a := randSym(5, 20, 40)
	onGrid(t, 4, a.N, func(d *grid.Dist) {
		m := NewMat(d, a)
		y := SpMSpV(m, NewSpV(d))
		if y.Nnz() != 0 {
			t.Errorf("empty input produced %d outputs", y.Nnz())
		}
	})
}

func TestDegreeVecMatchesSequential(t *testing.T) {
	a := randSym(9, 35, 90)
	want := a.Degrees()
	for _, p := range []int{1, 4, 16} {
		var full []int64
		onGrid(t, p, a.N, func(d *grid.Dist) {
			m := NewMat(d, a)
			deg := DegreeVec(m)
			got := deg.Gather(0)
			if d.G.World.Rank() == 0 {
				full = got
			}
		})
		for v := range want {
			if full[v] != int64(want[v]) {
				t.Errorf("p=%d: deg[%d] = %d, want %d", p, v, full[v], want[v])
			}
		}
	}
}

func TestSortPermMatchesSequentialSort(t *testing.T) {
	n := 40
	// Frontier: vertices 3..30 with parent labels cycling 0..4.
	degs := make([]int64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range degs {
		degs[i] = int64(rng.Intn(6))
	}
	var tuples []Tuple
	for v := 3; v <= 30; v++ {
		tuples = append(tuples, Tuple{Parent: int64(v % 5), Degree: degs[v], Vertex: v})
	}
	SortTuplesWS(nil, tuples)
	nv := int64(100)
	wantLabel := map[int]int64{}
	for k, tu := range tuples {
		wantLabel[tu.Vertex] = nv + int64(k)
	}
	for _, p := range []int{1, 4, 9, 16} {
		ch := make(chan Entry, n)
		onGrid(t, p, n, func(d *grid.Dist) {
			deg := NewVec(d, 0)
			for g := deg.Lo; g < deg.Hi; g++ {
				deg.Set(g, degs[g])
			}
			lnext := NewSpV(d)
			for g := lnext.Lo; g < lnext.Hi; g++ {
				if g >= 3 && g <= 30 {
					lnext.Loc.Append(g, int64(g%5))
				}
			}
			rnext := SortPermWS(&SortWS{}, lnext, deg, nv)
			if !rnext.Loc.IsSorted() {
				t.Errorf("p=%d: Rnext unsorted", p)
			}
			for k, i := range rnext.Loc.Ind {
				if i < rnext.Lo || i >= rnext.Hi {
					t.Errorf("p=%d: received label for non-owned vertex %d", p, i)
				}
				ch <- Entry{Ind: i, Val: rnext.Loc.Val[k]}
			}
		})
		close(ch)
		got := map[int]int64{}
		for e := range ch {
			got[e.Ind] = e.Val
		}
		if !reflect.DeepEqual(got, wantLabel) {
			t.Errorf("p=%d: SortPerm mismatch\n got %v\nwant %v", p, got, wantLabel)
		}
	}
}

func TestSortPermEmptyFrontier(t *testing.T) {
	onGrid(t, 4, 10, func(d *grid.Dist) {
		deg := NewVec(d, 0)
		rnext := SortPermWS(&SortWS{}, NewSpV(d), deg, 5)
		if rnext.Loc.Len() != 0 {
			t.Error("labels from empty frontier")
		}
	})
}

func TestSortPermSingleEntry(t *testing.T) {
	onGrid(t, 4, 10, func(d *grid.Dist) {
		deg := NewVec(d, 3)
		ln := NewSpVSingle(d, 7, 0)
		rnext := SortPermWS(&SortWS{}, ln, deg, 41)
		total := comm.AllReduceSum(d.G.World, int64(rnext.Loc.Len()))
		if total != 1 {
			t.Errorf("labeled %d vertices", total)
		}
		if rnext.Owns(7) {
			if rnext.Loc.Len() != 1 || rnext.Loc.Val[0] != 41 {
				t.Errorf("label = %+v", rnext.Loc)
			}
		}
	})
}

func TestSortPermLocalLabelsAllExactlyOnce(t *testing.T) {
	n := 30
	for _, p := range []int{1, 4, 9} {
		ch := make(chan Entry, n)
		onGrid(t, p, n, func(d *grid.Dist) {
			deg := NewVec(d, 1)
			lnext := NewSpV(d)
			for g := lnext.Lo; g < lnext.Hi; g++ {
				if g%3 != 0 {
					lnext.Loc.Append(g, int64(g%4))
				}
			}
			rnext := SortPermLocalWS(&SortWS{}, lnext, deg, 10)
			for k, i := range rnext.Loc.Ind {
				ch <- Entry{Ind: i, Val: rnext.Loc.Val[k]}
			}
		})
		close(ch)
		seenV := map[int]bool{}
		seenL := map[int64]bool{}
		for e := range ch {
			if seenV[e.Ind] || seenL[e.Val] {
				t.Errorf("p=%d: duplicate vertex or label %+v", p, e)
			}
			seenV[e.Ind] = true
			seenL[e.Val] = true
			if e.Val < 10 {
				t.Errorf("p=%d: label below base: %d", p, e.Val)
			}
		}
	}
}

func TestSortPermNoneLabelsAllExactlyOnce(t *testing.T) {
	n := 24
	for _, p := range []int{1, 9} {
		ch := make(chan Entry, n)
		onGrid(t, p, n, func(d *grid.Dist) {
			lnext := NewSpV(d)
			for g := lnext.Lo; g < lnext.Hi; g++ {
				lnext.Loc.Append(g, 0)
			}
			rnext := SortPermNone(lnext, 0)
			for k, i := range rnext.Loc.Ind {
				ch <- Entry{Ind: i, Val: rnext.Loc.Val[k]}
			}
		})
		close(ch)
		labels := map[int64]bool{}
		for e := range ch {
			labels[e.Val] = true
		}
		if len(labels) != n {
			t.Errorf("p=%d: %d distinct labels, want %d", p, len(labels), n)
		}
	}
}

// Owns reports whether the SpV's chunk covers g (test helper).
func (x *SpV) Owns(g int) bool { return g >= x.Lo && g < x.Hi }

// Nnz returns the global number of nonzeros (test helper; collective).
func (x *SpV) Nnz() int64 {
	return comm.AllReduceSum(x.D.G.World, int64(x.Loc.Len()))
}

func TestLocalSpMSpVCSRScanMatchesCSC(t *testing.T) {
	a := randSym(21, 25, 60)
	onGrid(t, 4, a.N, func(d *grid.Dist) {
		m := NewMat(d, a)
		// Build the local CSR for the scan kernel.
		var rr, cc []int
		for lc := 0; lc < m.Block.Cols; lc++ {
			for _, lr := range m.Block.Column(lc) {
				rr = append(rr, int(lr))
				cc = append(cc, lc)
			}
		}
		var es []spmat.Coord
		for k := range rr {
			es = append(es, spmat.Coord{Row: rr[k], Col: cc[k], Val: 1})
		}
		// Local CSR is rectangular in general; embed in a square of the
		// max dimension for the scan (rows beyond RowHi have no entries).
		dim := m.RowHi - m.RowLo
		if c := m.ColHi - m.ColLo; c > dim {
			dim = c
		}
		csr := spmat.FromCoords(dim, es, true)
		xj := []Entry{}
		for g := m.ColLo; g < m.ColHi; g += 2 {
			xj = append(xj, Entry{Ind: g, Val: int64(g + 1)})
		}
		want := m.LocalSpMSpVCSC(xj)
		got := m.LocalSpMSpVCSRScan(csr, xj)
		if len(got) != len(want) {
			t.Fatalf("kernel mismatch: %d vs %d entries", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Errorf("entry %d: %+v vs %+v", k, got[k], want[k])
			}
		}
	})
}

// BenchmarkSpMSpV measures one distributed SpMSpV over (select2nd, min)
// with a mid-size frontier on a 2×2 grid. Every rank builds its block and
// frontier once, in one world, and rank 0 starts the timer after a barrier,
// so only the repeated SpMSpV calls are timed.
func BenchmarkSpMSpV(b *testing.B) {
	a := graphgen.SuiteByName("Serena").Build(3)
	b.ReportAllocs()
	comm.Run(4, nil, func(c *comm.Comm) {
		d := grid.NewDist(grid.Square(c), a.N)
		m := NewMat(d, a)
		x := NewSpV(d)
		for g := x.Lo; g < x.Hi; g += 16 {
			x.Loc.Append(g, int64(g))
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			SpMSpV(m, x)
		}
	})
}
