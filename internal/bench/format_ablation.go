package bench

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/distmat"
	"repro/internal/graphgen"
	"repro/internal/grid"
	"repro/internal/spmat"
)

// FormatAblationRow compares the CSC local SpMSpV kernel against the CSR
// row-scan alternative at one frontier density. The paper picked CSC for
// its local blocks because the frontier vectors of RCM's BFS are very
// sparse (§IV-A); the row scan wins only when the frontier approaches
// dense.
type FormatAblationRow struct {
	FrontierFrac float64
	CSCWork      int64
	CSRScanWork  int64
}

// RunAblationLocalFormat measures the modelled work of both local kernels
// across frontier densities on a suite matrix block.
func RunAblationLocalFormat(cfg Config) []FormatAblationRow {
	e := graphgen.SuiteByName("Serena")
	a := e.Build(cfg.scale() * 2)
	fracs := []float64{0.001, 0.01, 0.1, 0.5, 1.0}
	var rows []FormatAblationRow
	for _, frac := range fracs {
		row := FormatAblationRow{FrontierFrac: frac}
		comm.Run(1, nil, func(c *comm.Comm) {
			d := grid.NewDist(grid.Square(c), a.N)
			m := distmat.NewMat(d, a)

			// Build the local CSR once for the scan kernel.
			var es []spmat.Coord
			for lc := 0; lc < m.Block.Cols; lc++ {
				for _, lr := range m.Block.Column(lc) {
					es = append(es, spmat.Coord{Row: int(lr), Col: lc, Val: 1})
				}
			}
			csr := spmat.FromCoords(a.N, es, true)

			// Frontier of the requested density.
			step := int(1 / frac)
			if step < 1 {
				step = 1
			}
			var xj []distmat.Entry
			for g := 0; g < a.N; g += step {
				xj = append(xj, distmat.Entry{Ind: g, Val: int64(g)})
			}
			before := c.Stats().Work
			m.LocalSpMSpVCSC(xj)
			row.CSCWork = c.Stats().Work - before
			before = c.Stats().Work
			m.LocalSpMSpVCSRScan(csr, xj)
			row.CSRScanWork = c.Stats().Work - before
		})
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: local SpMSpV kernel work, CSC vs CSR row scan (n=%d nnz=%d)\n", a.N, a.NNZ())
	fmt.Fprintf(w, "%10s %14s %14s %10s\n", "frontier", "csc work", "csr-scan work", "csc/csr")
	hr(w, 52)
	for _, r := range rows {
		ratio := 0.0
		if r.CSRScanWork > 0 {
			ratio = float64(r.CSCWork) / float64(r.CSRScanWork)
		}
		fmt.Fprintf(w, "%9.1f%% %14d %14d %10.3f\n", 100*r.FrontierFrac, r.CSCWork, r.CSRScanWork, ratio)
	}
	fmt.Fprintln(w)
	return rows
}
