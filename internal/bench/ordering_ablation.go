package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/amd"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// OrderingRow compares the three ordering families on one suite matrix
// across both quality axes: the envelope metrics RCM and Sloan target
// (bandwidth, profile, RMS wavefront) and the fill proxy (Σ u_i(u_i−1)/2
// over above-diagonal row counts) AMD targets. Sloan is the
// profile-minimizing baseline the paper cites as the alternative heuristic
// (§I). One family does not dominate — the table quantifies what each
// trades away, which is the decision behind the facade's WithOrdering and
// the service's ordering= parameter.
type OrderingRow struct {
	Name   string
	N, NNZ int
	// Input holds the statistics of the scrambled input; RCM, AMD and
	// Sloan those of each family's ordering.
	Input, RCM, AMD, Sloan      spmat.OrderStats
	SecsRCM, SecsAMD, SecsSloan float64
}

// RunAblationOrdering orders each suite analog with RCM, AMD and Sloan and
// reports bandwidth, fill proxy, profile and RMS wavefront side by side,
// plus wall-clock seconds per family. AMD runs the multiple-elimination
// engine at cfg.AMDThreads threads (output is identical at any). An
// ordering that is not a permutation fails the experiment.
func RunAblationOrdering(cfg Config) ([]OrderingRow, error) {
	threads := max(cfg.AMDThreads, 1)
	var rows []OrderingRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		// measure times one family's ordering, then reads its statistics
		// off a in one pass through the permutation's checked inverse.
		measure := func(family string, order func() []int) (spmat.OrderStats, float64, error) {
			start := time.Now()
			perm := order()
			secs := time.Since(start).Seconds()
			inv, err := spmat.InvertChecked(perm, a.N)
			if err != nil {
				return spmat.OrderStats{}, 0, fmt.Errorf("ablation-ordering: %s on %s: %w", family, e.Name, err)
			}
			return a.OrderStats(inv, 1), secs, nil
		}
		row := OrderingRow{Name: e.Name, N: a.N, NNZ: a.NNZ(), Input: a.OrderStats(nil, 1)}
		var errs [3]error
		row.RCM, row.SecsRCM, errs[0] = measure("rcm", func() []int { return core.Sequential(a).Perm })
		row.AMD, row.SecsAMD, errs[1] = measure("amd", func() []int { return amd.Order(a, threads) })
		row.Sloan, row.SecsSloan, errs[2] = measure("sloan", func() []int { return core.Sloan(a).Perm })
		if err := errors.Join(errs[:]...); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: ordering families (bandwidth | fill proxy | profile | RMS wavefront | seconds), AMD threads=%d\n", threads)
	fmt.Fprintf(w, "%-17s %8s %8s %8s %8s | %11s %11s %11s %11s | %11s %11s %11s %11s | %8s %8s %8s %9s | %7s %7s %7s\n",
		"name", "bw-in", "bw-rcm", "bw-amd", "bw-sloan",
		"fill-in", "fill-rcm", "fill-amd", "fill-sloan",
		"prof-in", "prof-rcm", "prof-amd", "prof-sloan",
		"rms-in", "rms-rcm", "rms-amd", "rms-sloan",
		"s-rcm", "s-amd", "s-sloan")
	hr(w, 218)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %8d %8d %8d %8d | %11d %11d %11d %11d | %11d %11d %11d %11d | %8.1f %8.1f %8.1f %9.1f | %7.3f %7.3f %7.3f\n",
			r.Name, r.Input.Bandwidth, r.RCM.Bandwidth, r.AMD.Bandwidth, r.Sloan.Bandwidth,
			r.Input.FillProxy, r.RCM.FillProxy, r.AMD.FillProxy, r.Sloan.FillProxy,
			r.Input.Profile, r.RCM.Profile, r.AMD.Profile, r.Sloan.Profile,
			r.Input.Wavefront.RMS, r.RCM.Wavefront.RMS, r.AMD.Wavefront.RMS, r.Sloan.Wavefront.RMS,
			r.SecsRCM, r.SecsAMD, r.SecsSloan)
	}
	fmt.Fprintln(w)
	return rows, nil
}
