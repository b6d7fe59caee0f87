package spmat

import "sort"

// DCSC is the doubly compressed sparse column format of Buluç & Gilbert,
// the local-block storage CombBLAS uses when blocks become hypersparse
// (nnz ≪ columns), as they do on large process grids: the 2D decomposition
// gives each of p processes ~nnz/p entries spread over n/√p columns, so a
// CSC column-pointer array of length n/√p+1 dwarfs the data itself. DCSC
// stores pointers only for the columns that actually have nonzeros.
type DCSC struct {
	Rows, Cols int
	// JC lists the distinct nonempty column indices, ascending.
	JC []int
	// CP are column pointers into IR, len(JC)+1.
	CP []int
	// IR are row indices, sorted within each column; int32 like CSC.Row.
	IR []int32
}

// DCSCFromCSC compresses a CSC matrix.
func DCSCFromCSC(c *CSC) *DCSC {
	d := &DCSC{Rows: c.Rows, Cols: c.Cols}
	for j := 0; j < c.Cols; j++ {
		col := c.Column(j)
		if len(col) == 0 {
			continue
		}
		d.JC = append(d.JC, j)
		d.CP = append(d.CP, len(d.IR))
		d.IR = append(d.IR, col...)
	}
	d.CP = append(d.CP, len(d.IR))
	return d
}

// Column returns the row indices of column j (empty if j has no entries),
// via binary search over the compressed column list.
func (d *DCSC) Column(j int) []int32 {
	k := sort.SearchInts(d.JC, j)
	if k == len(d.JC) || d.JC[k] != j {
		return nil
	}
	return d.IR[d.CP[k]:d.CP[k+1]]
}

// MemWords returns the storage footprint in 8-byte words.
func (d *DCSC) MemWords() int64 {
	return int64(len(d.JC) + len(d.CP) + (len(d.IR)+1)/2)
}

// MemWords returns the CSC storage footprint in 8-byte words, for
// comparison with DCSC on hypersparse blocks.
func (a *CSC) MemWords() int64 {
	return int64(len(a.ColPtr) + (len(a.Row)+1)/2)
}
