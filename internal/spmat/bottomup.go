package spmat

import (
	"math"
	"math/bits"
)

// RowVal is one (row, value) output pair of the bottom-up kernels.
type RowVal struct {
	Row int
	Val int64
}

// BottomUpCSC is the local bottom-up (masked SpMV) kernel of the
// direction-optimized BFS. rt is the row-major view of the block: rt.Column(r)
// lists the neighbour columns of row r, so for the distributed 2D blocks rt is
// the transpose of the CSC block (the row view distmat.NewMat builds beside
// it), and for a symmetric square matrix the CSC itself serves.
//
// The kernel visits every row whose visited bit is clear — whole words of
// visited rows are skipped, which is where the bottom-up direction wins on the
// fat middle levels — and keeps the minimum label of the row's neighbours
// whose frontier bit is set. Rows with at least one frontier neighbour append
// (row, minimum) to out, in ascending row order (index-sorted by
// construction: no sparse accumulator, no output sort).
//
// earlyExit stops a row's scan at the first frontier neighbour and emits 0
// instead of the minimum. That is only valid when every frontier label is
// equal — the label-free pseudo-peripheral BFS, which overwrites the emitted
// values with the level — because then the minimum over any non-empty
// neighbour subset is the same value. The ordering BFS must keep earlyExit
// false: its (select2nd, min) fold has to see *all* frontier neighbours to
// attach the vertex to its minimum-label parent, which is exactly what keeps
// the bottom-up pass byte-identical to the top-down one. labels may be nil
// when earlyExit is set.
//
// The second return is the performed work in tally units: visited-mask words
// scanned, edges traversed, and entries emitted.
func BottomUpCSC(rt *CSC, visited, frontier Bitmap, labels []int64, earlyExit bool, out []RowVal) ([]RowVal, int64) {
	n := rt.Cols
	work := int64(len(visited))
	for wi := range visited {
		free := ^visited[wi]
		if wi == len(visited)-1 && n&63 != 0 {
			free &= (1 << uint(n&63)) - 1 // rows past n are not scannable
		}
		for free != 0 {
			b := bits.TrailingZeros64(free)
			free &= free - 1
			r := wi<<6 + b
			col := rt.Column(r)
			acc := int64(math.MaxInt64)
			hit := false
			for _, c := range col {
				work++
				if !frontier.Get(int(c)) {
					continue
				}
				if earlyExit {
					out = append(out, RowVal{Row: r})
					work++
					hit = false
					break
				}
				acc = min(acc, labels[c])
				hit = true
			}
			if hit {
				out = append(out, RowVal{Row: r, Val: acc})
				work++
			}
		}
	}
	return out, work
}

// BottomUpDCSC is BottomUpCSC over a doubly compressed row-major view
// (the transpose of a hypersparse block in DCSC form): only the nonempty rows
// are iterated, ascending, so the output stays index-sorted and the kernel
// never touches the empty majority of a hypersparse block.
func BottomUpDCSC(rt *DCSC, visited, frontier Bitmap, labels []int64, earlyExit bool, out []RowVal) ([]RowVal, int64) {
	work := int64(len(rt.JC))
	for k, r := range rt.JC {
		if visited.Get(r) {
			continue
		}
		acc := int64(math.MaxInt64)
		hit := false
		for _, c := range rt.IR[rt.CP[k]:rt.CP[k+1]] {
			work++
			if !frontier.Get(int(c)) {
				continue
			}
			if earlyExit {
				out = append(out, RowVal{Row: r})
				work++
				hit = false
				break
			}
			acc = min(acc, labels[c])
			hit = true
		}
		if hit {
			out = append(out, RowVal{Row: r, Val: acc})
			work++
		}
	}
	return out, work
}
