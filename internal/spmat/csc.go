package spmat

// CSC is a rectangular pattern matrix in compressed-sparse-column form. The
// paper stores the local submatrices of the 2D decomposition in CSC because
// it is the fastest format for SpMSpV with very sparse input vectors
// (§IV-A): only the columns matching the frontier's nonzeros are touched.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	Row        []int
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.Row) }

// Column returns the row indices of column j (shared storage; do not
// mutate). Rows are sorted ascending.
func (a *CSC) Column(j int) []int { return a.Row[a.ColPtr[j]:a.ColPtr[j+1]] }

// ToCSC converts a square CSR pattern to CSC form. For symmetric patterns
// this is a relabelling of the same data.
func (a *CSR) ToCSC() *CSC {
	t := a.Transpose()
	return &CSC{Rows: a.N, Cols: a.N, ColPtr: t.RowPtr, Row: t.Col}
}

// TransposeCSC returns the transpose of a rectangular CSC pattern matrix: the
// row-major view of the same block, which is what the bottom-up kernels scan.
// A counting sort by row index; because input columns are visited in
// ascending order, rows within each output column come out sorted.
func TransposeCSC(a *CSC) *CSC {
	ptr := make([]int, a.Rows+1)
	for _, r := range a.Row {
		ptr[r+1]++
	}
	for i := 0; i < a.Rows; i++ {
		ptr[i+1] += ptr[i]
	}
	rows := make([]int, len(a.Row))
	next := append([]int(nil), ptr...)
	for j := 0; j < a.Cols; j++ {
		for _, r := range a.Column(j) {
			rows[next[r]] = j
			next[r]++
		}
	}
	return &CSC{Rows: a.Cols, Cols: a.Rows, ColPtr: ptr, Row: rows}
}
