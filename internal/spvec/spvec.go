// Package spvec holds the local pieces of the distributed Table I kernels
// of package distmat: the sparse vector a rank keeps for its share of the
// BFS frontier, the SORTPERM record with its lexicographic order and keyed
// sort, and the dense-vector fill.
package spvec

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

// IsSorted reports whether indices are strictly increasing.
func (x *Sp) IsSorted() bool {
	for i := 1; i < len(x.Ind); i++ {
		if x.Ind[i] <= x.Ind[i-1] {
			return false
		}
	}
	return true
}

// Tuple is one SORTPERM record: the (parent label, degree, vertex id) triple
// whose lexicographic order defines the labels of the next frontier.
type Tuple struct {
	Parent int64
	Degree int64
	Vertex int
}

// TupleLess is the lexicographic (parent, degree, vertex) order.
func TupleLess(a, b Tuple) bool {
	if a.Parent != b.Parent {
		return a.Parent < b.Parent
	}
	if a.Degree != b.Degree {
		return a.Degree < b.Degree
	}
	return a.Vertex < b.Vertex
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

// Fill sets every entry of a dense vector to v.
func Fill(y []int64, v int64) {
	for i := range y {
		y[i] = v
	}
}
