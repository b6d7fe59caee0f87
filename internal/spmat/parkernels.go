package spmat

import (
	"math"
	"sort"

	"repro/internal/par"
)

// Parallel bulk kernels over row blocks. No production path calls them:
// rcm.Order's Before/After statistics and Summarize's bandwidth and profile
// come from one OrderStats pass. Their callers are the repo benchmark's
// trace replay and rcm's BenchmarkIngest/permute-stats, whose archived
// series time them; they stay until those callers move to OrderStats. Each
// kernel partitions the rows with Blocks/WeightedBlocks and either writes
// disjoint output ranges or reduces per-block partials, so the results are
// byte-identical to the serial methods at any thread count. threads == 1
// runs the serial code path directly; threads < 1 selects GOMAXPROCS.

// minParallelRows gates the goroutine fan-out: below this size the spawn
// overhead exceeds the sweep itself. A variable so the equivalence tests can
// force the parallel path on small fixtures.
var minParallelRows = 2048

// BandwidthPar is Bandwidth over nnz-balanced row blocks with a max
// reduction of the per-block partials.
func (a *CSR) BandwidthPar(threads int) int {
	if threads == 1 || a.N < minParallelRows {
		return a.Bandwidth()
	}
	bounds := WeightedBlocks(a.RowPtr, threads)
	part := make([]int, len(bounds)-1)
	par.Blocks(bounds, func(k, lo, hi int) {
		bw := 0
		for i := lo; i < hi; i++ {
			for _, j := range a.Row(i) {
				d := i - j
				if d < 0 {
					d = -d
				}
				if d > bw {
					bw = d
				}
			}
		}
		part[k] = bw
	})
	bw := 0
	for _, p := range part {
		if p > bw {
			bw = p
		}
	}
	return bw
}

// ProfilePar is Profile over row blocks with a sum reduction. The sweep is
// O(n) — each row contributes only its first stored column — so the blocks
// are uniform in rows.
func (a *CSR) ProfilePar(threads int) int64 {
	if threads == 1 || a.N < minParallelRows {
		return a.Profile()
	}
	bounds := Blocks(a.N, threads)
	part := make([]int64, len(bounds)-1)
	par.Blocks(bounds, func(k, lo, hi int) {
		var p int64
		for i := lo; i < hi; i++ {
			row := a.Row(i)
			if len(row) == 0 {
				continue
			}
			if bi := i - row[0]; bi > 0 {
				p += int64(bi)
			}
		}
		part[k] = p
	})
	var p int64
	for _, v := range part {
		p += v
	}
	return p
}

// FillProxyPar is FillProxy over nnz-balanced row blocks with a sum
// reduction of the per-block partials.
func (a *CSR) FillProxyPar(threads int) int64 {
	if threads == 1 || a.N < minParallelRows {
		return a.FillProxy()
	}
	bounds := WeightedBlocks(a.RowPtr, threads)
	part := make([]int64, len(bounds)-1)
	par.Blocks(bounds, func(k, lo, hi int) {
		var f int64
		for i := lo; i < hi; i++ {
			row := a.Row(i)
			u := int64(len(row) - sort.SearchInts(row, i+1))
			f += u * (u - 1) / 2
		}
		part[k] = f
	})
	var f int64
	for _, v := range part {
		f += v
	}
	return f
}

// WavefrontPar is Wavefront with the first-nonzero-column gather — the only
// part that touches the sparse structure — parallelized over row blocks;
// the difference-array accumulation and the O(n) scan that follows stay
// sequential (they are pure arithmetic on dense arrays and the scan carries
// a dependency).
func (a *CSR) WavefrontPar(threads int) WavefrontStats {
	if threads == 1 || a.N < minParallelRows {
		return a.Wavefront()
	}
	n := a.N
	fj := make([]int, n)
	par.Blocks(Blocks(n, threads), func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			fj[j] = j
			row := a.Row(j)
			if len(row) > 0 && row[0] < j {
				fj[j] = row[0]
			}
		}
	})
	diff := make([]int, n+1)
	for j := 0; j < n; j++ {
		diff[fj[j]]++
		diff[j+1]--
	}
	var st WavefrontStats
	cur := 0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		cur += diff[i]
		if cur > st.Max {
			st.Max = cur
		}
		sum += float64(cur)
		sumSq += float64(cur) * float64(cur)
	}
	st.Mean = sum / float64(n)
	st.RMS = math.Sqrt(sumSq / float64(n))
	return st
}
