package bench

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/tally"
	"repro/rcm"
)

// SortAblationRow compares the three frontier-labeling strategies on one
// matrix: the paper's full distributed sort against its §VI future-work
// alternatives (local-only sort, no sort).
type SortAblationRow struct {
	Name      string
	Procs     int
	BWBefore  int
	BWFull    int
	BWLocal   int
	BWNone    int
	SecsFull  float64
	SecsLocal float64
	SecsNone  float64
	SortFull  float64 // seconds inside SORTPERM, full mode
	SortLocal float64
	SortNone  float64
}

// RunAblationSort regenerates the sorting ablation: ordering time and
// quality under SortFull / SortLocal / SortNone at cfg.Procs processes.
func RunAblationSort(cfg Config) []SortAblationRow {
	procs := cfg.procs()
	var rows []SortAblationRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := SortAblationRow{Name: e.Name, Procs: procs, BWBefore: a.Bandwidth()}
		cc := CoreConfig{Cores: procs * 6, Procs: procs, Threads: 6}
		for _, mode := range []core.SortMode{core.SortFull, core.SortLocal, core.SortNone} {
			model := cfg.model().WithThreads(cc.Threads)
			ord := core.Distributed(a, core.DistOptions{Procs: cc.Procs, Model: model, SortMode: mode, Options: cfg.optionsFor(a)})
			bw := a.Permute(ord.Perm).Bandwidth()
			total := secs(ord.Breakdown.TotalNs() - ord.Breakdown.PhaseNs(tally.Setup))
			sortSecs := secs(ord.Breakdown.PhaseNs(tally.OrderingSort))
			switch mode {
			case core.SortFull:
				row.BWFull, row.SecsFull, row.SortFull = bw, total, sortSecs
			case core.SortLocal:
				row.BWLocal, row.SecsLocal, row.SortLocal = bw, total, sortSecs
			case core.SortNone:
				row.BWNone, row.SecsNone, row.SortNone = bw, total, sortSecs
			}
		}
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: SORTPERM strategies at %d processes (bandwidth / modelled seconds)\n", procs)
	fmt.Fprintf(w, "%-17s %9s | %9s %8s | %9s %8s | %9s %8s\n", "name", "bw-before", "bw-full", "s-full", "bw-local", "s-local", "bw-none", "s-none")
	hr(w, 100)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %9d | %9d %8.4f | %9d %8.4f | %9d %8.4f\n",
			r.Name, r.BWBefore, r.BWFull, r.SecsFull, r.BWLocal, r.SecsLocal, r.BWNone, r.SecsNone)
	}
	fmt.Fprintln(w)
	return rows
}

// SemiringAblationRow measures the effect of the deterministic
// (select2nd, min) parent selection versus nondeterministic parent picks,
// emulated by randomizing vertex identities: quality spread across seeds.
type SemiringAblationRow struct {
	Name string
	// BWDeterministic is the bandwidth from the deterministic contract.
	BWDeterministic int
	// BWSpread are bandwidths under re-randomized tie-breaking
	// identities, the practical effect of a nondeterministic semiring.
	BWSpread []int
}

// RunAblationSemiring quantifies how much ordering quality depends on the
// deterministic parent/tie-breaking rule the semiring enforces, over three
// re-randomized identity seeds.
func RunAblationSemiring(cfg Config) []SemiringAblationRow {
	const seeds = 3
	var rows []SemiringAblationRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := SemiringAblationRow{Name: e.Name}
		row.BWDeterministic = a.Permute(core.Sequential(a).Perm).Bandwidth()
		rng := rand.New(rand.NewSource(17))
		for s := 0; s < seeds; s++ {
			q := rng.Perm(a.N)
			shuffled := a.Permute(q)
			perm := core.Sequential(shuffled).Perm
			row.BWSpread = append(row.BWSpread, shuffled.Permute(perm).Bandwidth())
		}
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: ordering-quality spread under randomized tie-breaking identities\n")
	fmt.Fprintf(w, "%-17s %10s %s\n", "name", "bw-det", "bw across seeds")
	hr(w, 60)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %10d %v\n", r.Name, r.BWDeterministic, r.BWSpread)
	}
	fmt.Fprintln(w)
	return rows
}

// HybridAblationRow is one threads-per-process point at a fixed core count.
type HybridAblationRow struct {
	Threads int
	Procs   int
	Total   float64
	Comm    float64
}

// RunAblationHybrid sweeps threads-per-process at a (near-)fixed core
// count on the ldoor analog, generalizing the Fig. 6 flat-vs-hybrid
// comparison: more processes at equal cores means higher collective
// latencies, the reason the paper settled on six threads per process.
func RunAblationHybrid(cfg Config) []HybridAblationRow {
	e := graphgen.SuiteByName("ldoor")
	a := e.Build(cfg.scale())
	// ~144 cores in every configuration, square process grids.
	pts := []CoreConfig{
		{Cores: 144, Procs: 144, Threads: 1},
		{Cores: 144, Procs: 36, Threads: 4},
		{Cores: 144, Procs: 16, Threads: 9},
		{Cores: 144, Procs: 9, Threads: 16},
		{Cores: 144, Procs: 4, Threads: 36},
		{Cores: 144, Procs: 1, Threads: 144},
	}
	var rows []HybridAblationRow
	for _, cc := range cfg.filterConfigs(pts) {
		pt := runScalePoint(a, cc, cfg.model(), core.SortFull, cfg.optionsFor(a))
		rows = append(rows, HybridAblationRow{
			Threads: cc.Threads, Procs: cc.Procs,
			Total: pt.Total,
			Comm:  secs(pt.Breakdown.TotalCommNs()),
		})
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: threads/process at 144 cores, ldoor analog (modelled seconds)\n")
	fmt.Fprintf(w, "%8s %8s %11s %11s\n", "threads", "procs", "total", "comm")
	hr(w, 44)
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %11.4f %11.4f\n", r.Threads, r.Procs, r.Total, r.Comm)
	}
	fmt.Fprintln(w)
	return rows
}

// DirectionAblationRow compares the traversal direction policies on one
// matrix at a fixed process count: the direction-optimized hybrid (Auto)
// against pure top-down (the paper's algorithm) and pure bottom-up.
type DirectionAblationRow struct {
	Name  string
	Procs int
	// SecsAuto/TopDown/BottomUp are modelled seconds excluding setup.
	SecsAuto, SecsTopDown, SecsBottomUp float64
	// SpMSpVAuto and SpMSpVTopDown are the modelled seconds inside the
	// SpMSpV / masked-SpMV phase (comp + comm), where the directions differ.
	SpMSpVAuto, SpMSpVTopDown float64
	// TDLevels and BULevels are Auto's per-direction level counts.
	TDLevels, BULevels int64
	// Identical reports whether all three permutations were byte-identical
	// (the deterministic contract across directions; always true).
	Identical bool
}

// RunAblationDirection regenerates the direction ablation: modelled time
// under Auto / TopDown / BottomUp at cfg.Procs processes, plus Auto's
// level split — the experiment behind the claim that direction optimization
// attacks the fat middle levels of low-diameter graphs without perturbing
// the ordering.
func RunAblationDirection(cfg Config) []DirectionAblationRow {
	procs := cfg.procs()
	var rows []DirectionAblationRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := DirectionAblationRow{Name: e.Name, Procs: procs, Identical: true}
		model := cfg.model().WithThreads(6)
		var ref []int
		for _, dir := range []core.Direction{core.DirAuto, core.DirTopDown, core.DirBottomUp} {
			opt := cfg.optionsFor(a)
			opt.Direction = dir
			ord := core.Distributed(a, core.DistOptions{Procs: procs, Model: model, Options: opt})
			total := secs(ord.Breakdown.TotalNs() - ord.Breakdown.PhaseNs(tally.Setup))
			spmspv := secs(ord.Breakdown.PhaseNs(tally.PeripheralSpMSpV) + ord.Breakdown.PhaseNs(tally.OrderingSpMSpV))
			switch dir {
			case core.DirAuto:
				row.SecsAuto, row.SpMSpVAuto = total, spmspv
				row.TDLevels, row.BULevels = ord.Breakdown.TopDownLevels, ord.Breakdown.BottomUpLevels
				ref = ord.Perm
			case core.DirTopDown:
				row.SecsTopDown, row.SpMSpVTopDown = total, spmspv
			case core.DirBottomUp:
				row.SecsBottomUp = total
			}
			if ref != nil && !reflect.DeepEqual(ord.Perm, ref) {
				row.Identical = false
			}
		}
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: traversal direction at %d processes (modelled seconds, excl. setup)\n", procs)
	fmt.Fprintf(w, "%-17s %9s %9s %9s | %9s %9s | %4s %4s %s\n",
		"name", "s-auto", "s-td", "s-bu", "spmspv-a", "spmspv-td", "td", "bu", "ident")
	hr(w, 100)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %9.4f %9.4f %9.4f | %9.4f %9.4f | %4d %4d %v\n",
			r.Name, r.SecsAuto, r.SecsTopDown, r.SecsBottomUp,
			r.SpMSpVAuto, r.SpMSpVTopDown, r.TDLevels, r.BULevels, r.Identical)
	}
	fmt.Fprintln(w)
	return rows
}

// HeuristicAblationRow compares the start-vertex heuristics on one matrix:
// ordering quality (bandwidth, profile) under the paper's pseudo-peripheral
// search, the RCM++ bi-criteria finder, and the cheap MinDegree/FirstVertex
// baselines, plus the search cost (BFS sweeps) and the cross-engine identity
// check for the two searching heuristics.
type HeuristicAblationRow struct {
	Name     string
	Procs    int
	BWBefore int
	// BW and Prof are the post-ordering bandwidth and profile per
	// heuristic, in the order peripheral, bi-criteria, min-degree,
	// first-vertex.
	BW   [4]int
	Prof [4]int64
	// SweepsPeripheral and SweepsBiCriteria are the start-search BFS sweep
	// counts of the distributed runs (the bi-criteria finder's extra
	// cost); CandidateSweeps is how many of the bi-criteria run's sweeps
	// ran under the multi-candidate shortlist (all of them, by
	// construction — the counter exists to tell the finders apart in
	// mixed reporting).
	SweepsPeripheral, SweepsBiCriteria, CandidateSweeps int64
	// Identical reports whether the distributed permutation matched the
	// sequential one for both searching heuristics (the deterministic
	// contract under the start-policy subsystem; always true).
	Identical bool
}

// heuristicOrder is the column order of HeuristicAblationRow.BW/Prof.
var heuristicOrder = [4]rcm.StartHeuristic{rcm.PseudoPeripheral, rcm.BiCriteria, rcm.MinDegree, rcm.FirstVertex}

// RunAblationHeuristic regenerates the start-heuristic ablation: ordering
// quality per heuristic over the generator suite — the RCM++ claim is that
// the bi-criteria finder's bandwidth is at most the pseudo-peripheral
// default's on most matrices — together with the sweep counts the finder
// pays (at cfg.Procs processes) and the cross-engine identity check.
func RunAblationHeuristic(cfg Config) []HeuristicAblationRow {
	procs := cfg.procs()
	var rows []HeuristicAblationRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := HeuristicAblationRow{Name: e.Name, Procs: procs, BWBefore: a.Bandwidth(), Identical: true}
		model := cfg.model().WithThreads(6)
		for hi, h := range heuristicOrder {
			opt := cfg.optionsFor(a)
			applyHeuristic(&opt, a, h)
			seq := core.SequentialOpt(a, opt)
			p := a.Permute(seq.Perm)
			row.BW[hi], row.Prof[hi] = p.Bandwidth(), p.Profile()
			if h != rcm.PseudoPeripheral && h != rcm.BiCriteria {
				continue
			}
			// The searching heuristics also run distributed, for the
			// sweep counters and the identity check.
			ord := core.Distributed(a, core.DistOptions{Procs: procs, Model: model, Options: opt})
			if !reflect.DeepEqual(ord.Perm, seq.Perm) {
				row.Identical = false
			}
			if h == rcm.PseudoPeripheral {
				row.SweepsPeripheral = ord.Breakdown.PeripheralSweeps
			} else {
				row.SweepsBiCriteria = ord.Breakdown.PeripheralSweeps
				row.CandidateSweeps = ord.Breakdown.CandidateSweeps
			}
		}
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: start-vertex heuristic at %d processes (bandwidth / profile after RCM)\n", procs)
	fmt.Fprintf(w, "%-17s %8s | %7s %9s | %7s %9s %5s | %7s %9s | %7s %9s | %6s %s\n",
		"name", "bw-pre", "bw-pp", "prof-pp", "bw-bc", "prof-bc", "Δbw", "bw-md", "prof-md", "bw-fv", "prof-fv", "sweeps", "ident")
	hr(w, 132)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %8d | %7d %9d | %7d %9d %+5d | %7d %9d | %7d %9d | %2d/%-3d %v\n",
			r.Name, r.BWBefore, r.BW[0], r.Prof[0], r.BW[1], r.Prof[1], r.BW[1]-r.BW[0],
			r.BW[2], r.Prof[2], r.BW[3], r.Prof[3], r.SweepsPeripheral, r.SweepsBiCriteria, r.Identical)
	}
	better := 0
	for _, r := range rows {
		if r.BW[1] <= r.BW[0] {
			better++
		}
	}
	fmt.Fprintf(w, "bi-criteria bandwidth <= pseudo-peripheral on %d/%d matrices\n\n", better, len(rows))
	return rows
}

// QualityRow records the ordering quality of one matrix across process
// counts — the §I claim that quality is insensitive to concurrency. Under
// the deterministic contract the bandwidths are identical.
type QualityRow struct {
	Name       string
	Procs      []int
	Bandwidths []int
	Identical  bool
}

// RunQuality verifies (and reports) quality-vs-concurrency across the suite
// at 1, 4, 16 and 64 processes.
func RunQuality(cfg Config) []QualityRow {
	procs := []int{1, 4, 16, 64}
	var rows []QualityRow
	for _, e := range graphgen.Suite() {
		if !cfg.wants(e.Name) {
			continue
		}
		a := e.Build(cfg.scale())
		row := QualityRow{Name: e.Name, Procs: procs, Identical: true}
		var perms [][]int
		for _, p := range procs {
			ord := core.Distributed(a, core.DistOptions{Procs: p, Model: cfg.model(), Options: cfg.optionsFor(a)})
			row.Bandwidths = append(row.Bandwidths, a.Permute(ord.Perm).Bandwidth())
			perms = append(perms, ord.Perm)
		}
		for i := 1; i < len(perms); i++ {
			if !reflect.DeepEqual(perms[0], perms[i]) {
				row.Identical = false
			}
		}
		rows = append(rows, row)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Quality vs concurrency (bandwidth at p = %v)\n", procs)
	fmt.Fprintf(w, "%-17s %v identical-perms\n", "name", "bandwidths")
	hr(w, 60)
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %v %v\n", r.Name, r.Bandwidths, r.Identical)
	}
	fmt.Fprintln(w)
	return rows
}
