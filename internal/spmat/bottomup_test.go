package spmat

import (
	"math"
	"math/rand"
	"testing"
)

func randCSC(rng *rand.Rand, rows, cols int, density float64) *CSC {
	var rr, cc []int
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if rng.Float64() < density {
				rr = append(rr, i)
				cc = append(cc, j)
			}
		}
	}
	return cscFromCoords(rows, cols, rr, cc)
}

// transposeCSC returns the transpose of a rectangular CSC pattern matrix,
// the row-major view of the block that the bottom-up kernels scan: a
// counting sort by row index, which leaves the rows within each output
// column sorted because the input columns are visited in ascending order.
// distmat.NewMat builds the view itself; this is the test oracle.
func transposeCSC(a *CSC) *CSC {
	ptr := make([]int, a.Rows+1)
	for _, r := range a.Row {
		ptr[r+1]++
	}
	for i := 0; i < a.Rows; i++ {
		ptr[i+1] += ptr[i]
	}
	rows := make([]int32, len(a.Row))
	next := append([]int(nil), ptr...)
	for j := 0; j < a.Cols; j++ {
		for _, r := range a.Column(j) {
			rows[next[r]] = int32(j)
			next[r]++
		}
	}
	return &CSC{Rows: a.Cols, Cols: a.Rows, ColPtr: ptr, Row: rows}
}

func TestTransposeCSC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randCSC(rng, rows, cols, 0.2)
		at := transposeCSC(a)
		if at.Rows != a.Cols || at.Cols != a.Rows {
			t.Fatalf("transpose dims %dx%d of %dx%d", at.Rows, at.Cols, a.Rows, a.Cols)
		}
		if at.NNZ() != a.NNZ() {
			t.Fatalf("transpose nnz %d != %d", at.NNZ(), a.NNZ())
		}
		for r := 0; r < at.Cols; r++ {
			col := at.Column(r)
			for k, j := range col {
				if k > 0 && col[k-1] >= j {
					t.Fatalf("transpose column %d not strictly sorted: %v", r, col)
				}
				found := false
				for _, ri := range a.Column(int(j)) {
					if int(ri) == r {
						found = true
					}
				}
				if !found {
					t.Fatalf("transpose entry (%d,%d) missing from original", r, j)
				}
			}
		}
	}
}

func TestBitmapOps(t *testing.T) {
	b := NewBitmap(130)
	if len(b) != 3 {
		t.Fatalf("130 bits want 3 words, got %d", len(b))
	}
	for _, i := range []int{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set on fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(62) || b.Get(65) || b.Get(128) {
		t.Fatal("set disturbed neighbours")
	}
	b = b.Reuse(10)
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("reuse did not clear: %v", b)
	}
}

// referenceBottomUp is the brute-force oracle: for every unvisited row, the
// minimum label over frontier neighbours.
func referenceBottomUp(rt *CSC, visited, frontier Bitmap, labels []int64) []RowVal {
	var out []RowVal
	for r := 0; r < rt.Cols; r++ {
		if visited.Get(r) {
			continue
		}
		acc := int64(math.MaxInt64)
		hit := false
		for _, c := range rt.Column(r) {
			if frontier.Get(int(c)) {
				acc = min(acc, labels[c])
				hit = true
			}
		}
		if hit {
			out = append(out, RowVal{Row: r, Val: acc})
		}
	}
	return out
}

func TestBottomUpKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(150)
		cols := 1 + rng.Intn(150)
		block := randCSC(rng, rows, cols, 0.1)
		rt := transposeCSC(block) // rt.Cols = rows scanned, rt.Rows = neighbour cols
		visited := NewBitmap(rows)
		frontier := NewBitmap(cols)
		labels := make([]int64, cols)
		for i := 0; i < rows; i++ {
			if rng.Intn(2) == 0 {
				visited.Set(i)
			}
		}
		for j := 0; j < cols; j++ {
			if rng.Intn(3) == 0 {
				frontier.Set(j)
				labels[j] = int64(rng.Intn(1000))
			}
		}
		want := referenceBottomUp(rt, visited, frontier, labels)

		got, _ := BottomUpCSC(rt, visited, frontier, labels, false, nil)
		if len(got) != len(want) {
			t.Fatalf("CSC kernel emitted %d rows, want %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("CSC kernel[%d] = %+v, want %+v", k, got[k], want[k])
			}
		}

		d := DCSCFromCSC(rt)
		gotD, _ := BottomUpDCSC(d, visited, frontier, labels, false, nil)
		if len(gotD) != len(want) {
			t.Fatalf("DCSC kernel emitted %d rows, want %d", len(gotD), len(want))
		}
		for k := range gotD {
			if gotD[k] != want[k] {
				t.Fatalf("DCSC kernel[%d] = %+v, want %+v", k, gotD[k], want[k])
			}
		}

		// Early exit (label-free): same row set, value 0.
		gotE, _ := BottomUpCSC(rt, visited, frontier, nil, true, nil)
		if len(gotE) != len(want) {
			t.Fatalf("early-exit kernel emitted %d rows, want %d", len(gotE), len(want))
		}
		for k := range gotE {
			if gotE[k].Row != want[k].Row || gotE[k].Val != 0 {
				t.Fatalf("early-exit kernel[%d] = %+v, want row %d val 0", k, gotE[k], want[k].Row)
			}
		}
		gotED, _ := BottomUpDCSC(d, visited, frontier, nil, true, nil)
		if len(gotED) != len(gotE) {
			t.Fatalf("early-exit DCSC emitted %d rows, want %d", len(gotED), len(gotE))
		}
		for k := range gotED {
			if gotED[k] != gotE[k] {
				t.Fatalf("early-exit DCSC[%d] = %+v, want %+v", k, gotED[k], gotE[k])
			}
		}
	}
}
