package bench

import (
	"fmt"
	"time"

	"repro/internal/amd"
	"repro/internal/core"
	"repro/internal/graphgen"
)

// OrderingRow compares the three ordering families on one suite matrix
// across both quality axes: the bandwidth/profile envelope metrics RCM
// targets and the fill proxy (Σ u_i(u_i−1)/2 over above-diagonal row
// counts) AMD targets. Sloan rides along as the profile-minimizing
// baseline. One family does not dominate — the table quantifies what each
// trades away, which is the decision behind the facade's WithOrdering and
// the service's ordering= parameter.
type OrderingRow struct {
	Name                          string
	N, NNZ                        int
	BWBefore, BWRCM, BWAMD, BWSln int
	FillBefore, FillRCM           int64
	FillAMD, FillSln              int64
	ProfBefore, ProfRCM           int64
	ProfAMD, ProfSln              int64
	SecsRCM, SecsAMD, SecsSln     float64
}

// RunAblationOrdering orders each suite analog with RCM, AMD and Sloan and
// reports bandwidth, fill proxy and profile side by side, plus wall-clock
// seconds per family. AMD runs the multiple-elimination engine at
// cfg.AMDThreads threads (output is identical at any).
func RunAblationOrdering(cfg Config) []OrderingRow {
	threads := max(cfg.AMDThreads, 1)
	var rows []OrderingRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := OrderingRow{
			Name:       e.Name,
			N:          a.N,
			NNZ:        a.NNZ(),
			BWBefore:   a.Bandwidth(),
			FillBefore: a.FillProxy(),
			ProfBefore: a.Profile(),
		}

		start := time.Now()
		rc := core.Sequential(a)
		row.SecsRCM = time.Since(start).Seconds()
		pr := a.Permute(rc.Perm)
		row.BWRCM, row.FillRCM, row.ProfRCM = pr.Bandwidth(), pr.FillProxy(), pr.Profile()

		start = time.Now()
		ap := amd.Order(a, threads)
		row.SecsAMD = time.Since(start).Seconds()
		pa := a.Permute(ap)
		row.BWAMD, row.FillAMD, row.ProfAMD = pa.Bandwidth(), pa.FillProxy(), pa.Profile()

		start = time.Now()
		sl := core.Sloan(a)
		row.SecsSln = time.Since(start).Seconds()
		ps := a.Permute(sl.Perm)
		row.BWSln, row.FillSln, row.ProfSln = ps.Bandwidth(), ps.FillProxy(), ps.Profile()

		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: ordering families (bandwidth | fill proxy | profile | seconds), AMD threads=%d\n", threads)
	fmt.Fprintf(w, "%-17s %8s %8s %8s %8s | %11s %11s %11s %11s | %7s %7s %7s\n",
		"name", "bw-in", "bw-rcm", "bw-amd", "bw-sloan", "fill-in", "fill-rcm", "fill-amd", "fill-sloan", "s-rcm", "s-amd", "s-sloan")
	hr(w, 146)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %8d %8d %8d %8d | %11d %11d %11d %11d | %7.3f %7.3f %7.3f\n",
			r.Name, r.BWBefore, r.BWRCM, r.BWAMD, r.BWSln,
			r.FillBefore, r.FillRCM, r.FillAMD, r.FillSln,
			r.SecsRCM, r.SecsAMD, r.SecsSln)
	}
	fmt.Fprintln(w)
	return rows
}
