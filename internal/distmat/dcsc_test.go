package distmat

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
)

func TestLocalSpMSpVDCSCMatchesCSC(t *testing.T) {
	a := randSym(31, 40, 100)
	for _, p := range []int{1, 4, 9} {
		comm.Run(p, nil, func(c *comm.Comm) {
			d := grid.NewDist(grid.Square(c), a.N)
			m := NewMat(d, a)
			dc := m.DCSCBlock()
			if dc.NNZ() != m.Block.NNZ() {
				t.Errorf("p=%d: dcsc nnz %d vs csc %d", p, dc.NNZ(), m.Block.NNZ())
			}
			var xj []Entry
			for g := m.ColLo; g < m.ColHi; g += 3 {
				xj = append(xj, Entry{Ind: g, Val: int64(g * 2)})
			}
			// Both kernels return the workspace's output buffer: copy the
			// CSC result out before the DCSC call overwrites it.
			want := append([]Entry(nil), m.LocalSpMSpVCSC(xj)...)
			got := m.LocalSpMSpVDCSC(dc, xj)
			if len(got) != len(want) {
				t.Fatalf("p=%d: %d vs %d entries", p, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("p=%d entry %d: %+v vs %+v", p, k, got[k], want[k])
				}
			}
		})
	}
}

func TestDCSCBlockHypersparseAtHighP(t *testing.T) {
	a := randSym(33, 60, 90)
	comm.Run(36, nil, func(c *comm.Comm) {
		d := grid.NewDist(grid.Square(c), a.N)
		m := NewMat(d, a)
		dc := m.DCSCBlock()
		// Every block is tiny; DCSC must never store more column
		// pointers than it has entries (+1 sentinel per column list).
		if len(dc.JC) > dc.NNZ() {
			t.Errorf("dcsc stores %d columns for %d entries", len(dc.JC), dc.NNZ())
		}
	})
}
