package spmat

import "runtime"

// Row-block partitioning shared by every parallel bulk kernel (the symmetry
// check, PAPᵀ and its band pass, OrderStats, ParallelComponents, the *Par
// statistics kernels, the RCMB decode workers and the Shared engine's
// frontier sweeps). A partition is a boundary slice b with b[0] = 0 and
// b[len(b)-1] = n: block k covers rows [b[k], b[k+1]). All kernels write
// disjoint ranges derived from these boundaries, so their output is
// byte-identical at any thread count.

// Blocks splits [0, n) into at most `threads` contiguous equal-size blocks.
// threads < 1 selects GOMAXPROCS; the block count never exceeds n, so no
// block is empty (except the degenerate n = 0 single boundary).
func Blocks(n, threads int) []int {
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	b := make([]int, threads+1)
	for k := 0; k <= threads; k++ {
		b[k] = k * n / threads
	}
	return b
}

// WeightedBlocks splits the n rows described by the monotone offset array
// ptr (len n+1, ptr[0] = 0 — a CSR RowPtr) into at most `threads` contiguous
// blocks of roughly equal total weight ptr[hi]-ptr[lo], so a block of dense
// rows does not serialize the sweep behind it. Boundaries are found by
// binary search on ptr; a degenerate all-zero weighting falls back to the
// uniform split.
func WeightedBlocks(ptr []int, threads int) []int {
	n := len(ptr) - 1
	total := ptr[n]
	if total == 0 {
		return Blocks(n, threads)
	}
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	b := make([]int, threads+1)
	b[threads] = n
	for k := 1; k < threads; k++ {
		target := k * total / threads
		// Smallest boundary whose cumulative weight reaches the target, not
		// below the previous boundary (empty blocks are fine under skew).
		lo, hi := b[k-1], n
		for lo < hi {
			mid := (lo + hi) / 2
			if ptr[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b[k] = lo
	}
	return b
}
