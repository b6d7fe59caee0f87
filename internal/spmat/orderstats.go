package spmat

import (
	"math"
	"runtime"
	"sort"

	"repro/internal/par"
)

// OrderStats is the ordering-quality statistics of a matrix under one
// symmetric permutation: the Bandwidth, Profile, FillProxy and Wavefront
// the serial kernels report on PAPᵀ.
type OrderStats struct {
	Bandwidth int
	Profile   int64
	FillProxy int64
	Wavefront WavefrontStats
}

// OrderStats computes the statistics of PAPᵀ in one pass over A's rows,
// without building PAPᵀ. inv is the inverse permutation (inv[old] = new
// position, as InvertChecked returns it); nil means the identity, the
// statistics of A itself. Old row i is row r = inv[i] of PAPᵀ, and its
// entry (i, j) lands in column c = inv[j], so every quantity the serial
// kernels read off a sorted row is an order-free reduction over the
// relabeled entries:
//
//   - the row's half bandwidth is max |r − c|;
//   - with w = min(r, min c) (w = r for an empty row), the row adds r − w to
//     the profile, and it is active in the wavefront at steps [w, r];
//   - u = #{c > r} entries lie above the diagonal, adding u(u−1)/2 to the
//     fill proxy.
//
// The front at step s is #{rows with w ≤ s} − s (the s rows above step s
// all have w ≤ s and have all retired), a prefix sum of the histogram of
// w, so only the multiset of w matters and it is stored by old row. Rows are
// swept in nnz-balanced blocks with per-block partials, so the result is
// byte-identical to Permute followed by the serial kernels at any thread
// count. threads == 1 (or a small matrix) sweeps on the calling goroutine;
// threads < 1 selects GOMAXPROCS, and the block count is capped there,
// because every block is a goroutine.
func (a *CSR) OrderStats(inv []int, threads int) OrderStats {
	n := a.N
	if n == 0 {
		return OrderStats{}
	}
	if procs := runtime.GOMAXPROCS(0); threads < 1 || threads > procs {
		threads = procs
	}
	bounds := []int{0, n}
	if threads != 1 && n >= minParallelRows {
		bounds = WeightedBlocks(a.RowPtr, threads)
	}
	part := make([]OrderStats, len(bounds)-1)
	w := make([]int, n)
	par.Blocks(bounds, func(k, lo, hi int) {
		part[k] = a.orderStatsRows(inv, lo, hi, w)
	})
	var st OrderStats
	for _, p := range part {
		st.Bandwidth = max(st.Bandwidth, p.Bandwidth)
		st.Profile += p.Profile
		st.FillProxy += p.FillProxy
	}
	// cnt[s] counts the rows entering the front at step s.
	cnt := make([]int, n)
	for _, s := range w {
		cnt[s]++
	}
	entered := 0
	var sum, sumSq float64
	for s := 0; s < n; s++ {
		entered += cnt[s]
		cur := entered - s
		st.Wavefront.Max = max(st.Wavefront.Max, cur)
		sum += float64(cur)
		sumSq += float64(cur) * float64(cur)
	}
	st.Wavefront.Mean = sum / float64(n)
	st.Wavefront.RMS = math.Sqrt(sumSq / float64(n))
	return st
}

// orderStatsRows is the OrderStats sweep over old rows [lo, hi): it returns
// the block's bandwidth, profile and fill partials and writes w[i] for every
// old row i of the block. Without a permutation the rows are already
// sorted, so the endpoints and one binary search replace the entry loop.
func (a *CSR) orderStatsRows(inv []int, lo, hi int, w []int) OrderStats {
	var (
		bw         int
		prof, fill int64
	)
	for i := lo; i < hi; i++ {
		row := a.Row(i)
		// The row's extreme columns with its diagonal r included, so
		// r − first and last − r are never negative.
		r, first, last, u := i, i, i, 0
		if inv == nil {
			if len(row) > 0 {
				first = min(first, row[0])
				last = max(last, row[len(row)-1])
				u = len(row) - sort.SearchInts(row, i+1)
			}
		} else {
			r = inv[i]
			first, last = r, r
			for _, j := range row {
				c := inv[j]
				first = min(first, c)
				last = max(last, c)
				if c > r {
					u++
				}
			}
		}
		bw = max(bw, r-first, last-r)
		prof += int64(r - first)
		fill += int64(u) * int64(u-1) / 2
		w[i] = first
	}
	return OrderStats{Bandwidth: bw, Profile: prof, FillProxy: fill}
}
