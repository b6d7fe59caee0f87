// Command rcmbench regenerates every table and figure of the paper's
// evaluation on the synthetic analog suite. Experiments are selected by id:
//
//	rcmbench -exp fig1               CG + block Jacobi, natural vs RCM (Fig. 1)
//	rcmbench -exp fig3               matrix suite table (Fig. 3)
//	rcmbench -exp table2             shared-memory vs distributed (Table II)
//	rcmbench -exp fig4               strong-scaling runtime breakdown (Fig. 4)
//	rcmbench -exp fig5               SpMSpV computation vs communication (Fig. 5)
//	rcmbench -exp fig6               flat-MPI breakdown, ldoor (Fig. 6)
//	rcmbench -exp ablation-sort      SORTPERM strategies (§VI future work)
//	rcmbench -exp ablation-direction top-down vs bottom-up vs Auto traversal
//	rcmbench -exp ablation-heuristic start-vertex heuristics (RCM++ bi-criteria)
//	rcmbench -exp ablation-semiring  deterministic vs randomized tie-breaking
//	rcmbench -exp ablation-hybrid    threads/process sweep at fixed cores
//	rcmbench -exp ablation-format    CSC vs CSR-scan local kernel (§IV-A)
//	rcmbench -exp quality            ordering quality vs concurrency (§I claim)
//	rcmbench -exp sizesense          scaling limit vs matrix size (§V-D claim)
//	rcmbench -exp ablation-dcsc      CSC vs DCSC block storage (hypersparsity)
//	rcmbench -exp ablation-components component scheduling on/off, shared engine
//	rcmbench -exp ablation-ordering  RCM vs AMD vs Sloan: bandwidth, fill proxy, profile, RMS wavefront
//	rcmbench -exp spy                before/after ASCII spy plots (Fig. 3 plots)
//	rcmbench -exp fleet              sharded fleet QPS vs replica count
//	rcmbench -exp all                everything above
//
// The -direction flag forces the traversal direction policy
// (auto|top-down|bottom-up) of every distributed run, and the -heuristic
// flag forces the start-vertex heuristic
// (pseudo-peripheral|bi-criteria|min-degree|first-vertex) of every run, so
// the scaling experiments are sweepable across both the same way -exp
// ablation-sort sweeps SortMode.
//
// Times reported for distributed runs are modelled BSP seconds under the
// machine model (see DESIGN.md); shared-memory times are wall-clock. See
// EXPERIMENTS.md for the full regeneration guide.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/rcm"
)

func main() {
	var ids []string
	for _, e := range bench.Experiments(bench.Config{}) {
		ids = append(ids, e.ID)
	}
	var (
		exp        = flag.String("exp", "all", "experiment id ("+strings.Join(append(ids, "all"), "|")+")")
		scale      = flag.Int("scale", 2, "downscale factor for the analog matrices (1 = full analog)")
		maxCores   = flag.Int("maxcores", 0, "skip scaling configurations above this core count (0 = none)")
		matrices   = flag.String("matrices", "", "comma-separated matrix filter (default: all nine)")
		procs      = flag.Int("procs", 16, "process count for the sort, direction and heuristic ablations")
		amdThreads = flag.Int("amdthreads", 4, "AMD multiple-elimination thread count for the ordering ablation (output is identical at any)")
		dir        = flag.String("direction", "auto", "traversal direction policy for distributed runs (auto|top-down|bottom-up)")
		heur       = flag.String("heuristic", "pseudo-peripheral", "start-vertex heuristic for every run (pseudo-peripheral|bi-criteria|min-degree|first-vertex)")
		alpha      = flag.Float64("alpha", 0, "override model latency α in ns (0 = default)")
		beta       = flag.Float64("beta", 0, "override model inverse bandwidth β in ns/word (0 = default)")
		csvPath    = flag.String("csv", "", "also write machine-readable results here (fig1/fig4/fig5/fleet only)")
	)
	flag.Parse()

	direction, err := rcm.ParseDirection(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcmbench: %v\n", err)
		os.Exit(2)
	}
	heuristic, err := rcm.ParseHeuristic(*heur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcmbench: %v\n", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		Scale:         *scale,
		MaxCores:      *maxCores,
		AlphaNs:       *alpha,
		BetaNsPerWord: *beta,
		Direction:     direction,
		Heuristic:     heuristic,
		Procs:         *procs,
		AMDThreads:    *amdThreads,
		Out:           os.Stdout,
	}
	if *matrices != "" {
		cfg.Matrices = strings.Split(*matrices, ",")
	}

	ran := false
	for _, e := range bench.Experiments(cfg) {
		if *exp != e.ID && *exp != "all" {
			continue
		}
		ran = true
		res, err := e.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *exp == e.ID && e.CSV != nil && *csvPath != "" {
			if err := writeCSV(*csvPath, func(w io.Writer) error { return e.CSV(w, res) }); err != nil {
				fmt.Fprintf(os.Stderr, "rcmbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *csvPath)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "rcmbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
