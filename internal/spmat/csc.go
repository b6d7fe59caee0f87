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
