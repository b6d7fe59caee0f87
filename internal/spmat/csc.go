package spmat

import (
	"math"
	"strconv"
)

// CSC is a rectangular pattern matrix in compressed-sparse-column form. The
// paper stores the local submatrices of the 2D decomposition in CSC because
// it is the fastest format for SpMSpV with very sparse input vectors
// (§IV-A): only the columns matching the frontier's nonzeros are touched.
// Row indices are block-local, so they are stored as int32: half the bytes
// the SpMSpV and bottom-up kernels stream per edge.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	Row        []int32
}

// CheckIndexDim panics unless the indices of a dimension of n fit the int32
// Row of CSC and IR of DCSC. Every block build calls it.
func CheckIndexDim(n int) {
	if n > math.MaxInt32 {
		panic("spmat: dimension " + strconv.Itoa(n) + " exceeds the int32 index range of CSC/DCSC blocks")
	}
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.Row) }

// Column returns the row indices of column j (shared storage; do not
// mutate). Rows are sorted ascending.
func (a *CSC) Column(j int) []int32 { return a.Row[a.ColPtr[j]:a.ColPtr[j+1]] }

// ToCSC converts a square CSR pattern to CSC form. For symmetric patterns
// this is a relabelling of the same data.
func (a *CSR) ToCSC() *CSC {
	CheckIndexDim(a.N)
	t := a.Transpose()
	rows := make([]int32, len(t.Col))
	for k, i := range t.Col {
		rows[k] = int32(i)
	}
	return &CSC{Rows: a.N, Cols: a.N, ColPtr: t.RowPtr, Row: rows}
}

// TransposeCSC returns the transpose of a rectangular CSC pattern matrix: the
// row-major view of the same block, which is what the bottom-up kernels scan.
// A counting sort by row index; because input columns are visited in
// ascending order, rows within each output column come out sorted.
func TransposeCSC(a *CSC) *CSC {
	CheckIndexDim(a.Cols)
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
