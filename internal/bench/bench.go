// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§V), plus the ablations and the fleet
// experiment, each emitting the same rows/series the paper reports. The runners return structured results (so the tests can
// assert on them) and render human-readable tables to a writer.
// Experiments lists them by id for command rcmbench.
//
// Absolute times are modelled BSP seconds from the machine model in package
// tally; only the shape (who wins, by what factor, where curves cross) is
// comparable to the paper. EXPERIMENTS.md records both sides.
package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/spmat"
	"repro/internal/tally"
	"repro/rcm"
)

// Config controls an experiment run.
type Config struct {
	// Scale divides the linear dimensions of the analog matrices;
	// 1 reproduces the full analogs from DESIGN.md, larger values give
	// faster runs. Default (0) means 2.
	Scale int
	// MaxCores skips scaling configurations above this core count
	// (0 = run everything the experiment defines).
	MaxCores int
	// Matrices restricts suite experiments to the named matrices
	// (nil = all nine).
	Matrices []string
	// AlphaNs and BetaNsPerWord override the machine model's per-message
	// latency and inverse bandwidth (0 = the calibrated tally.Edison
	// value). See DESIGN.md for the calibration rationale.
	AlphaNs, BetaNsPerWord float64
	// Direction selects the traversal direction policy of the distributed
	// runs (rcm.Auto by default).
	Direction rcm.Direction
	// Heuristic selects the start-vertex heuristic of every run
	// (rcm.PseudoPeripheral by default).
	Heuristic rcm.StartHeuristic
	// Procs is the process count of the sort, direction and heuristic
	// ablations (0 = 16).
	Procs int
	// AMDThreads is the AMD engine's thread count in the ordering ablation
	// (0 = 1; the output is identical at any).
	AMDThreads int
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

// optionsFor returns the core engine options the configuration implies for
// one matrix. The matrix parameter resolves the heuristics that inspect the
// graph (min-degree needs the global minimum-degree vertex).
func (c Config) optionsFor(a *spmat.CSR) core.Options {
	opt := core.Options{Start: -1, Direction: core.Direction(c.Direction)}
	applyHeuristic(&opt, a, c.Heuristic)
	return opt
}

// applyHeuristic resolves a start heuristic into engine options, mirroring
// the facade's coreOptions translation. Every start-vertex field is
// assigned on every path, so a later call fully overrides an earlier one
// (RunAblationHeuristic re-applies each column's heuristic on top of the
// base configuration).
func applyHeuristic(opt *core.Options, a *spmat.CSR, h rcm.StartHeuristic) {
	opt.Policy = nil
	opt.SkipPeripheral = false
	opt.Start = -1
	switch h {
	case rcm.PseudoPeripheral:
	case rcm.BiCriteria:
		opt.Policy = core.BiCriteriaPolicy{}
	case rcm.MinDegree:
		opt.SkipPeripheral = true
		opt.Start = core.MinDegreeVertex(a)
	case rcm.FirstVertex:
		opt.SkipPeripheral = true
	default:
		panic(fmt.Sprintf("bench: unknown heuristic %v", h))
	}
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 2
	}
	return c.Scale
}

func (c Config) model() *tally.Model {
	m := tally.Edison()
	if c.AlphaNs > 0 {
		m.AlphaNs = c.AlphaNs
	}
	if c.BetaNsPerWord > 0 {
		m.BetaNsPerWord = c.BetaNsPerWord
	}
	return m
}

func (c Config) procs() int {
	if c.Procs < 1 {
		return 16
	}
	return c.Procs
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) wants(name string) bool {
	if len(c.Matrices) == 0 {
		return true
	}
	for _, m := range c.Matrices {
		if m == name {
			return true
		}
	}
	return false
}

// CoreConfig is one point on the strong-scaling x-axis: Cores = Procs ×
// Threads, matching the paper's hybrid runs (six threads per MPI process;
// §V-D) and flat-MPI runs (one thread per process; Fig. 6).
type CoreConfig struct {
	Cores, Procs, Threads int
}

// HybridConfigs returns the paper's Fig. 4/5 x-axis:
// 1, 6, 24, 54, 216, 1014, 4056 cores with t=6 beyond one core
// (process grids 1×1, 1×1, 2×2, 3×3, 6×6, 13×13, 26×26).
func HybridConfigs() []CoreConfig {
	return []CoreConfig{
		{Cores: 1, Procs: 1, Threads: 1},
		{Cores: 6, Procs: 1, Threads: 6},
		{Cores: 24, Procs: 4, Threads: 6},
		{Cores: 54, Procs: 9, Threads: 6},
		{Cores: 216, Procs: 36, Threads: 6},
		{Cores: 1014, Procs: 169, Threads: 6},
		{Cores: 4056, Procs: 676, Threads: 6},
	}
}

// FlatConfigs returns the Fig. 6 flat-MPI x-axis: 1–4096 cores, one thread
// per process, square grids.
func FlatConfigs() []CoreConfig {
	return []CoreConfig{
		{Cores: 1, Procs: 1, Threads: 1},
		{Cores: 4, Procs: 4, Threads: 1},
		{Cores: 16, Procs: 16, Threads: 1},
		{Cores: 64, Procs: 64, Threads: 1},
		{Cores: 256, Procs: 256, Threads: 1},
		{Cores: 1024, Procs: 1024, Threads: 1},
		{Cores: 4096, Procs: 4096, Threads: 1},
	}
}

func (c Config) filterConfigs(in []CoreConfig) []CoreConfig {
	if c.MaxCores <= 0 {
		return in
	}
	var out []CoreConfig
	for _, cc := range in {
		if cc.Cores <= c.MaxCores {
			out = append(out, cc)
		}
	}
	if len(out) == 0 {
		out = in[:1]
	}
	return out
}

func secs(ns float64) float64 { return tally.Seconds(ns) }

func hr(w io.Writer, width int) {
	for i := 0; i < width; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
