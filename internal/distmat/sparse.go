package distmat

import "repro/internal/psort"

// Sp is a sparse vector: parallel, index-sorted slices of indices and
// values. Indices are unique. The zero value is the empty vector.
type Sp struct {
	Ind []int
	Val []int64
}

// Len returns nnz(x).
func (x *Sp) Len() int { return len(x.Ind) }

// Append adds an entry; the caller must keep indices sorted and unique.
func (x *Sp) Append(ind int, val int64) {
	x.Ind = append(x.Ind, ind)
	x.Val = append(x.Val, val)
}

// Tuple is one SORTPERM record: the (parent label, degree, vertex id) triple
// whose lexicographic order defines the labels of the next frontier.
type Tuple struct {
	Parent int64
	Degree int64
	Vertex int
}

// SortTuplesWS sorts records lexicographically; the resulting positions are
// the SORTPERM permutation. The sort is the linear-time counting/radix sort
// over the three integer fields (the CG80-style Cuthill-McKee labeling),
// not a comparison sort. ws is the scratch workspace of callers that sort
// once per BFS level (nil allocates locally).
func SortTuplesWS(ws *psort.Scratch[Tuple], ts []Tuple) {
	psort.LexWS(ws, ts, 1,
		func(t Tuple) uint64 { return uint64(t.Parent) },
		func(t Tuple) uint64 { return uint64(t.Degree) },
		func(t Tuple) uint64 { return uint64(t.Vertex) })
}
