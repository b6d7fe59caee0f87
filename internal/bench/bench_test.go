package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/rcm"
)

// fastCfg keeps the experiment tests quick: tiny analogs, few cores.
func fastCfg(buf *bytes.Buffer) Config {
	return Config{Scale: 8, MaxCores: 54, Out: buf}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != 2 {
		t.Errorf("default scale %d", c.scale())
	}
	if c.model() == nil {
		t.Error("nil model")
	}
	if c.out() == nil {
		t.Error("nil out")
	}
	if !c.wants("anything") {
		t.Error("empty filter must match all")
	}
	c.Matrices = []string{"ldoor"}
	if c.wants("Serena") || !c.wants("ldoor") {
		t.Error("filter broken")
	}
}

func TestCoreConfigsShape(t *testing.T) {
	hy := HybridConfigs()
	if len(hy) != 7 {
		t.Fatalf("%d hybrid configs", len(hy))
	}
	for _, cc := range hy {
		if cc.Procs*cc.Threads != cc.Cores {
			t.Errorf("config %+v inconsistent", cc)
		}
		q := 0
		for q*q < cc.Procs {
			q++
		}
		if q*q != cc.Procs {
			t.Errorf("procs %d not square", cc.Procs)
		}
	}
	fl := FlatConfigs()
	for _, cc := range fl {
		if cc.Threads != 1 || cc.Procs != cc.Cores {
			t.Errorf("flat config %+v", cc)
		}
	}
}

func TestFilterConfigs(t *testing.T) {
	c := Config{MaxCores: 100}
	got := c.filterConfigs(HybridConfigs())
	for _, cc := range got {
		if cc.Cores > 100 {
			t.Errorf("config %+v above cap", cc)
		}
	}
	// Cap below everything keeps the first config.
	c.MaxCores = 0
	if len(c.filterConfigs(HybridConfigs())) != 7 {
		t.Error("no cap must keep all")
	}
	c.MaxCores = 1
	if len(c.filterConfigs(FlatConfigs())) != 1 {
		t.Error("cap=1 must keep one config")
	}
}

func TestRunFig1ShowsRCMAdvantageAtScale(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 10, MaxCores: 64, Out: &buf}
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BWRCM >= res.BWNatural {
		t.Errorf("RCM bandwidth %d not below natural %d", res.BWRCM, res.BWNatural)
	}
	if len(res.Points) < 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Fig. 1's claim: RCM helps more at the top core count than at one.
	speedup := func(p Fig1Point) float64 { return modeledSeconds(p.Natural) / modeledSeconds(p.RCM) }
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if speedup(last) <= 1 {
		t.Errorf("at %d cores RCM (%g s) not faster than natural (%g s)",
			last.Cores, modeledSeconds(last.RCM), modeledSeconds(last.Natural))
	}
	if speedup(last) <= speedup(first) {
		t.Errorf("RCM speedup %.2fx at %d cores not above %.2fx at %d",
			speedup(last), last.Cores, speedup(first), first.Cores)
	}
	if !strings.Contains(buf.String(), "Fig 1") {
		t.Error("no table rendered")
	}
}

func TestRunFig3AllRowsAndBandwidthReduced(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg(&buf)
	rows := RunFig3(cfg)
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.PseudoDiam <= 0 {
			t.Errorf("%s: pseudo-diameter %d", r.Name, r.PseudoDiam)
		}
		// Bandwidth must never grow; the long thin high-diameter analogs
		// must see a strong reduction, while the random-graph analogs
		// (like the paper's nuclear matrices, where RCM barely helps)
		// and the tiny dense test-scale meshes may not improve much —
		// exactly Fig. 3's behaviour.
		if r.BWPost > r.BWPre {
			t.Errorf("%s: bandwidth grew %d -> %d", r.Name, r.BWPre, r.BWPost)
		}
		switch r.Name {
		case "ldoor", "Flan_1565", "nlpkkt240":
			if r.BWPost >= r.BWPre/2 {
				t.Errorf("%s: weak reduction %d -> %d", r.Name, r.BWPre, r.BWPost)
			}
		}
		if r.ProfilePost > r.ProfilePre {
			t.Errorf("%s: profile grew %d -> %d", r.Name, r.ProfilePre, r.ProfilePost)
		}
	}
	if !strings.Contains(buf.String(), "nlpkkt240") {
		t.Error("table incomplete")
	}
}

func TestSpyPair(t *testing.T) {
	before, after, err := SpyPair(Config{Scale: 10}, "ldoor")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(after) == 0 {
		t.Error("empty spy plots")
	}
	if _, _, err := SpyPair(Config{}, "nope"); err == nil {
		t.Error("unknown matrix accepted")
	}
}

func TestRunScalingBreakdownShapes(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 3, MaxCores: 54, Out: &buf, Matrices: []string{"ldoor", "Nm7"}}
	series := RunScaling(cfg)
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no points", s.Name)
		}
		for _, p := range s.Points {
			if p.Total <= 0 {
				t.Errorf("%s @%d: zero total", s.Name, p.Config.Cores)
			}
			if p.Bandwidth <= 0 {
				t.Errorf("%s @%d: zero bandwidth", s.Name, p.Config.Cores)
			}
			sum := p.PeripheralSpMSpV + p.PeripheralOther + p.OrderingSpMSpV + p.OrderingSort + p.OrderingOther
			if sum <= 0 {
				t.Errorf("%s @%d: empty breakdown", s.Name, p.Config.Cores)
			}
		}
		// Quality must not vary with concurrency.
		for _, p := range s.Points[1:] {
			if p.Bandwidth != s.Points[0].Bandwidth {
				t.Errorf("%s: bandwidth varies across cores", s.Name)
			}
		}
		// Strong scaling: more cores must not be slower at these sizes
		// until communication dominates; at least the 1->max ratio must
		// show a speedup.
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Total >= first.Total {
			t.Errorf("%s: no speedup from %d to %d cores (%g vs %g)",
				s.Name, first.Config.Cores, last.Config.Cores, first.Total, last.Total)
		}
	}
	PrintFig4(cfg, series)
	PrintFig5(cfg, series)
	out := buf.String()
	if !strings.Contains(out, "Fig 4") || !strings.Contains(out, "Fig 5") {
		t.Error("tables not rendered")
	}
}

func TestRunFig6FlatSlowerThanHybridAtScale(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, MaxCores: 64, Out: &buf, Matrices: []string{"ldoor"}}
	flat := RunFig6(cfg)
	if len(flat.Points) == 0 {
		t.Fatal("no flat points")
	}
	// Compare flat 64 cores against hybrid 54 cores (nearest config):
	// the flat run pays ~6x the process count.
	hybrid := RunScaling(cfg)
	var flat64, hyb54 float64
	for _, p := range flat.Points {
		if p.Config.Cores == 64 {
			flat64 = secs(p.Breakdown.TotalCommNs())
		}
	}
	for _, p := range hybrid[0].Points {
		if p.Config.Cores == 54 {
			hyb54 = secs(p.Breakdown.TotalCommNs())
		}
	}
	if flat64 <= hyb54 {
		t.Errorf("flat-MPI comm (%g) not above hybrid comm (%g)", flat64, hyb54)
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, Out: &buf, Matrices: []string{"nd24k", "Serena"}}
	rows := RunTable2(cfg)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SharedBW != r.DistBW {
			t.Errorf("%s: shared bw %d != dist bw %d (deterministic contract)", r.Name, r.SharedBW, r.DistBW)
		}
		if len(r.SharedSecs) == 0 || r.SharedSecs[0] <= 0 {
			t.Errorf("%s: no measured shared time", r.Name)
		}
		if len(r.DistModeledSecs) != 3 {
			t.Errorf("%s: %d dist points", r.Name, len(r.DistModeledSecs))
		}
	}
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("table not rendered")
	}
}

func TestGatherCost(t *testing.T) {
	cfg := Config{}
	if GatherCost(1000, 1, cfg) != 0 {
		t.Error("single proc gather cost nonzero")
	}
	small := GatherCost(1000, 16, cfg)
	big := GatherCost(1_000_000, 16, cfg)
	if big <= small || small <= 0 {
		t.Errorf("gather cost not monotone: %g %g", small, big)
	}
}

func TestRunAblationSort(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, Procs: 9, Out: &buf, Matrices: []string{"ldoor"}}
	rows := RunAblationSort(cfg)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.BWFull <= 0 || r.BWLocal <= 0 || r.BWNone <= 0 {
		t.Errorf("missing bandwidths: %+v", r)
	}
	// The full sort spends time in SORTPERM; SortNone must spend less
	// there.
	if r.SortNone >= r.SortFull {
		t.Errorf("no-sort SORTPERM time %g not below full %g", r.SortNone, r.SortFull)
	}
	if RunAblationSort(Config{Scale: 10, Matrices: []string{"Nm7"}})[0].Procs != 16 {
		t.Error("default procs")
	}
}

func TestRunAblationHeuristic(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, Procs: 4, Out: &buf, Matrices: []string{"ldoor", "Serena"}}
	rows := RunAblationHeuristic(cfg)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for hi, h := range heuristicOrder {
			if r.BW[hi] <= 0 || r.Prof[hi] <= 0 {
				t.Errorf("%s/%v: missing quality numbers: %+v", r.Name, h, r)
			}
			if r.BW[hi] >= r.BWBefore {
				t.Errorf("%s/%v: bandwidth %d not reduced from %d", r.Name, h, r.BW[hi], r.BWBefore)
			}
		}
		// The cross-engine identity oracle under both searching
		// heuristics.
		if !r.Identical {
			t.Errorf("%s: distributed permutation diverged from sequential", r.Name)
		}
		// The bi-criteria finder pays extra sweeps for its candidate
		// evaluations; the classic search evaluates none.
		if r.SweepsBiCriteria <= r.SweepsPeripheral || r.CandidateSweeps == 0 {
			t.Errorf("%s: sweep counts pp=%d bc=%d cand=%d", r.Name, r.SweepsPeripheral, r.SweepsBiCriteria, r.CandidateSweeps)
		}
	}
	if !strings.Contains(buf.String(), "bi-criteria bandwidth") {
		t.Error("summary line missing")
	}
	if RunAblationHeuristic(Config{Scale: 10, Matrices: []string{"Nm7"}})[0].Procs != 16 {
		t.Error("default procs")
	}
}

func TestConfigHeuristicThreadsThroughOptions(t *testing.T) {
	a := graphgen.SuiteByName("ldoor").Build(10)
	for _, h := range heuristicOrder {
		opt := Config{Heuristic: h}.optionsFor(a)
		ord := core.SequentialOpt(a, opt)
		if got := len(ord.Perm); got != a.N {
			t.Errorf("%v: perm length %d", h, got)
		}
		skip := h == rcm.MinDegree || h == rcm.FirstVertex
		if opt.SkipPeripheral != skip {
			t.Errorf("%v: SkipPeripheral = %v", h, opt.SkipPeripheral)
		}
	}
	// Re-applying a heuristic fully overrides the previous one: a base
	// -heuristic min-degree must not leak its skip/start into the
	// ablation's pseudo-peripheral column.
	opt := Config{Heuristic: rcm.MinDegree}.optionsFor(a)
	applyHeuristic(&opt, a, rcm.PseudoPeripheral)
	if opt.SkipPeripheral || opt.Start != -1 || opt.Policy != nil {
		t.Errorf("override leaked state: %+v", opt)
	}
	applyHeuristic(&opt, a, rcm.BiCriteria)
	if opt.SkipPeripheral || opt.Policy == nil {
		t.Errorf("bi-criteria override leaked state: %+v", opt)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown heuristic accepted")
		}
	}()
	Config{Heuristic: rcm.StartHeuristic(99)}.optionsFor(a)
}

func TestRunAblationSemiring(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, Out: &buf, Matrices: []string{"Serena"}}
	rows := RunAblationSemiring(cfg)
	if len(rows) != 1 || len(rows[0].BWSpread) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].BWDeterministic <= 0 {
		t.Error("missing deterministic bandwidth")
	}
}

func TestRunAblationHybrid(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, MaxCores: 144, Out: &buf}
	rows := RunAblationHybrid(cfg)
	if len(rows) < 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Flat (procs=144) must pay more communication than one-process
	// (procs=1) at equal cores.
	var flat, fat float64
	for _, r := range rows {
		if r.Procs == 144 {
			flat = r.Comm
		}
		if r.Procs == 1 {
			fat = r.Comm
		}
	}
	if flat <= fat {
		t.Errorf("flat comm %g not above single-process comm %g", flat, fat)
	}
}

func TestRunQuality(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 8, Out: &buf, Matrices: []string{"audikw_1"}}
	rows := RunQuality(cfg)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if !rows[0].Identical {
		t.Error("permutation varies with concurrency")
	}
	for _, bw := range rows[0].Bandwidths[1:] {
		if bw != rows[0].Bandwidths[0] {
			t.Error("bandwidth varies with concurrency")
		}
	}
}

func TestRunAblationLocalFormat(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 6, Out: &buf}
	rows := RunAblationLocalFormat(cfg)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// CSC must beat the row scan for very sparse frontiers...
	if rows[0].CSCWork >= rows[0].CSRScanWork {
		t.Errorf("sparse frontier: CSC %d not below CSR scan %d", rows[0].CSCWork, rows[0].CSRScanWork)
	}
	// ...and the advantage must shrink (or invert) as the frontier fills.
	first := float64(rows[0].CSCWork) / float64(rows[0].CSRScanWork)
	last := float64(rows[len(rows)-1].CSCWork) / float64(rows[len(rows)-1].CSRScanWork)
	if last <= first {
		t.Errorf("work ratio did not grow with density: %g -> %g", first, last)
	}
}

// TestModelOverrides checks that the α/β overrides reach the machine model
// (a larger latency must not make the modelled run faster).
func TestModelOverrides(t *testing.T) {
	// MaxCores 24 keeps the 2×2 process grid: below that every surviving
	// configuration is single-process and never communicates.
	base := Config{Scale: 12, MaxCores: 24, Matrices: []string{"ldoor"}, Out: io.Discard}
	slow := base
	slow.AlphaNs = 1e6
	var fast, lagged bytes.Buffer
	if err := WriteScalingCSV(&fast, RunScaling(base)); err != nil {
		t.Fatal(err)
	}
	if err := WriteScalingCSV(&lagged, RunScaling(slow)); err != nil {
		t.Fatal(err)
	}
	if fast.String() == lagged.String() {
		t.Error("α override had no effect on the modelled results")
	}
}
