package bench

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/cg"
)

// WriteScalingCSV emits the Fig. 4/5 sweep as CSV, one row per
// (matrix, core-configuration): the five phase segments, the SpMSpV
// comp/comm split, the total, and the achieved bandwidth. Columns are
// stable so downstream plotting scripts can rely on them.
func WriteScalingCSV(w io.Writer, series []ScaleSeries) error {
	cw := csv.NewWriter(w)
	header := []string{
		"matrix", "n", "nnz", "cores", "procs", "threads",
		"peri_spmspv_s", "peri_other_s", "ord_spmspv_s", "ord_sort_s", "ord_other_s",
		"total_s", "spmspv_comp_s", "spmspv_comm_s", "bandwidth",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return fmt.Sprintf("%.9f", v) }
	for _, s := range series {
		for _, p := range s.Points {
			row := []string{
				s.Name,
				fmt.Sprint(s.N), fmt.Sprint(s.NNZ),
				fmt.Sprint(p.Config.Cores), fmt.Sprint(p.Config.Procs), fmt.Sprint(p.Config.Threads),
				f(p.PeripheralSpMSpV), f(p.PeripheralOther), f(p.OrderingSpMSpV), f(p.OrderingSort), f(p.OrderingOther),
				f(p.Total), f(p.SpMSpVComp), f(p.SpMSpVComm),
				fmt.Sprint(p.Bandwidth),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig1CSV emits the Fig. 1 series as CSV.
func WriteFig1CSV(w io.Writer, res *Fig1Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cores", "ordering", "modeled_s", "iterations", "comm_words_per_iter", "comm_msgs_per_iter", "converged"}); err != nil {
		return err
	}
	row := func(cores int, ordering string, r *cg.DistResult) []string {
		return []string{fmt.Sprint(cores), ordering, fmt.Sprintf("%.9f", modeledSeconds(r)), fmt.Sprint(r.Iterations), fmt.Sprint(r.HaloWords), fmt.Sprint(r.HaloMsgs), fmt.Sprint(r.Converged)}
	}
	for _, p := range res.Points {
		for _, r := range [][]string{row(p.Cores, "natural", p.Natural), row(p.Cores, "rcm", p.RCM)} {
			if err := cw.Write(r); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
