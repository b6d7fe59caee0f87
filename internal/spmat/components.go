package spmat

import (
	"runtime"
	"sync/atomic"

	"repro/internal/par"
)

// Parallel connected components over the CSR pattern: a concurrent
// union-find pass in the L-RCM spirit (arXiv:1206.5726 observes that
// component detection and RCM are naturally one workload). The edge scan is
// partitioned across worker goroutines over a shared parent array updated
// with lock-free compare-and-swap; the final numbering is a sequential scan,
// so the output is deterministic regardless of interleaving: components are
// numbered in order of their smallest vertex id.
//
// The union invariant — the larger root is always linked under the smaller —
// means parent pointers only ever point to strictly smaller vertex ids: no
// cycles can form under any interleaving, and the final root of every
// component is its minimum vertex id.

// ufFind returns the current root of x with path halving. The halving CAS is
// a benign race: it only ever replaces a parent with a strictly smaller
// ancestor, never changing which root a chain leads to.
func ufFind(parent []int32, x int32) int32 {
	for {
		p := atomic.LoadInt32(&parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&parent[x], p, gp)
		x = gp
	}
}

// ufUnion merges the components of x and y, linking the larger root under
// the smaller. A failed CAS means another worker changed the root first;
// re-finding and retrying preserves the smaller-root invariant.
func ufUnion(parent []int32, x, y int32) {
	for {
		rx, ry := ufFind(parent, x), ufFind(parent, y)
		if rx == ry {
			return
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		if atomic.CompareAndSwapInt32(&parent[ry], ry, rx) {
			return
		}
	}
}

// ParallelComponents labels the connected components of G(A) using threads
// concurrent workers. threads < 1 selects GOMAXPROCS, and larger values are
// capped there: a block beyond the worker count adds a goroutine and no
// parallelism. The pattern is treated as an undirected graph (each stored
// entry (i, j) connects i and j regardless of whether the mirror entry is
// stored) and components are numbered in order of their smallest vertex id,
// so the result is deterministic.
func (a *CSR) ParallelComponents(threads int) (comp []int, ncomp int) {
	if procs := runtime.GOMAXPROCS(0); threads < 1 || threads > procs {
		threads = procs
	}
	n := a.N
	comp = make([]int, n)
	if n == 0 {
		return comp, 0
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	par.Blocks(Blocks(n, threads), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, j := range a.Row(i) {
				if j != i {
					ufUnion(parent, int32(i), int32(j))
				}
			}
		}
	})
	// Deterministic numbering: roots are component minima, so an ascending
	// scan meets every root before the rest of its component.
	for v := 0; v < n; v++ {
		if r := ufFind(parent, int32(v)); r == int32(v) {
			comp[v] = ncomp
			ncomp++
		} else {
			comp[v] = comp[r]
		}
	}
	return comp, ncomp
}

// ComponentSizes counts the vertices of each component label.
func ComponentSizes(comp []int, ncomp int) []int {
	sizes := make([]int, ncomp)
	for _, c := range comp {
		sizes[c]++
	}
	return sizes
}

// ComponentVertices groups the vertices by component label, each list in
// ascending vertex id, and returns alongside the local index of every vertex
// within its component's list — the global→local relabeling used to extract
// per-component subgraphs.
func ComponentVertices(comp []int, ncomp int) (verts [][]int, local []int32) {
	sizes := ComponentSizes(comp, ncomp)
	verts = make([][]int, ncomp)
	for c, sz := range sizes {
		verts[c] = make([]int, 0, sz)
	}
	local = make([]int32, len(comp))
	for v, c := range comp {
		local[v] = int32(len(verts[c]))
		verts[c] = append(verts[c], v)
	}
	return verts, local
}

// Subgraph extracts the induced subgraph on verts — the vertex list of one
// connected component in ascending global id — relabeled to local ids
// through local (as produced by ComponentVertices). Every neighbour of a
// component vertex lies in the same component, so local is total on the
// vertices reached. The relabeling is order-preserving, so rows stay sorted;
// the result is pattern-only (the ordering engines never read values).
func Subgraph(a *CSR, verts []int, local []int32) *CSR {
	nl := len(verts)
	rowPtr := make([]int, nl+1)
	for k, g := range verts {
		rowPtr[k+1] = rowPtr[k] + (a.RowPtr[g+1] - a.RowPtr[g])
	}
	cols := make([]int, rowPtr[nl])
	for k, g := range verts {
		dst := cols[rowPtr[k]:rowPtr[k+1]]
		for t, j := range a.Row(g) {
			dst[t] = int(local[j])
		}
	}
	return &CSR{N: nl, RowPtr: rowPtr, Col: cols}
}
