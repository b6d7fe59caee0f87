package rcm

import (
	"fmt"
	"runtime"

	"repro/internal/amd"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// Result reports an ordering computation.
type Result struct {
	// Perm is the computed permutation in symrcm convention: Perm[k] is
	// the old row/column index placed at position k of PAPᵀ.
	Perm []int
	// Ordering is the family that ran (RCM, AMD or Sloan).
	Ordering Ordering
	// Backend is the implementation that ran. Meaningful for the RCM
	// family; AMD and Sloan have a single engine each and echo the
	// (ignored) configured backend.
	Backend Backend
	// PseudoDiameter is the largest eccentricity estimate found by the
	// start-vertex search (PseudoPeripheral or BiCriteria), maximized
	// over components (Fig. 3 reports this per matrix). Zero when the
	// search was skipped (MinDegree, FirstVertex).
	PseudoDiameter int
	// Components is the number of connected components processed.
	Components int
	// Before and After are the ordering-quality statistics of the input
	// in its original order and under Perm.
	Before, After Stats
	// Procs and Threads record the parallel configuration (1/1 for the
	// sequential backends; cores = Procs × Threads for Distributed).
	Procs, Threads int
	// Modeled is the modelled BSP time breakdown of the simulated run.
	// Non-nil only for the Distributed backend. Under component scheduling
	// it is the merged breakdown of the big-component runs (small
	// components run as plain sequential jobs, which the BSP model does
	// not meter).
	Modeled *Breakdown
	// ComponentStats reports what the component scheduler did. Non-nil
	// only when WithComponentScheduling ran (including the degenerate
	// connected-graph case).
	ComponentStats *ComponentStats
}

// ComponentStats summarizes the component structure the scheduler found and
// how it dispatched the components.
type ComponentStats struct {
	// Count is the number of connected components.
	Count int
	// LargestSize and SmallestSize bound the component sizes (both zero
	// for an empty graph).
	LargestSize, SmallestSize int
	// Batched components were ordered as concurrent sequential jobs on the
	// worker pool; Direct ones went through the selected backend.
	Batched, Direct int
	// Threshold is the resolved size threshold separating the two.
	Threshold int
}

// Order computes the Reverse Cuthill-McKee ordering of a. By default it
// runs the Sequential backend with the pseudo-peripheral starting-vertex
// search; see the Option constructors for the full configuration surface.
// Structurally non-symmetric matrices are ordered by the pattern of A ∪ Aᵀ
// (disable with WithoutSymmetrize); Result.Perm always refers to a itself.
func Order(a *Matrix, opts ...Option) (*Result, error) {
	res, _, err := order(a, false, opts)
	return res, err
}

// OrderMatrix computes the ordering and applies it, returning the permuted
// matrix PAPᵀ alongside the Result.
func OrderMatrix(a *Matrix, opts ...Option) (*Matrix, *Result, error) {
	res, p, err := order(a, true, opts)
	if err != nil {
		return nil, nil, err
	}
	return p, res, nil
}

// Permute applies a permutation in symrcm convention, returning PAPᵀ. It
// is the inverse-free companion of Order for callers that persist
// permutations (see SavePermutation / LoadPermutation).
func Permute(a *Matrix, perm []int) (*Matrix, error) {
	if a == nil || a.csr == nil {
		return nil, fmt.Errorf("rcm: nil matrix")
	}
	return a.Permute(perm)
}

// order validates, runs the selected backend, and assembles the Result.
// The permuted matrix is built only when wantMatrix is set.
func order(a *Matrix, wantMatrix bool, opts []Option) (*Result, *Matrix, error) {
	if a == nil || a.csr == nil {
		return nil, nil, fmt.Errorf("rcm: nil matrix")
	}
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}

	// The graph the algorithms traverse: symmetric by construction. The
	// check, like Before and After below, runs under the host budget.
	h := c.hostThreads()
	g := a.csr
	sym := g.IsSymmetricPatternPar(h)
	if !sym {
		if !c.symmetrize {
			return nil, nil, fmt.Errorf("rcm: pattern is not symmetric (enable symmetrization or pre-apply Symmetrize)")
		}
		g = g.Symmetrize()
	}

	copt, err := c.coreOptions(g)
	if err != nil {
		return nil, nil, err
	}

	res := &Result{Ordering: c.ordering, Backend: c.backend, Procs: 1, Threads: 1}
	switch c.ordering {
	case AMD:
		// The fill-minimizing family: the internal/amd multiple-elimination
		// engine under the WithThreads worker budget. There is no BFS, so
		// no pseudo-diameter; the component count comes from the same
		// parallel union-find ConnectedComponents uses.
		res.Perm = amd.Order(g, c.threads)
		res.Threads = c.threads
		_, res.Components = g.ParallelComponents(c.threads)
	case Sloan:
		// The profile-minimizing baseline: sequential by design.
		fill(res, core.Sloan(g))
	default:
		var bds []tally.Breakdown
		run := c.engine(res, &bds)
		if c.scheduled() {
			c.runScheduled(g, copt, run, res)
		} else {
			fill(res, run(g, copt))
		}
		if c.backend == Distributed {
			res.Modeled = newBreakdown(tally.Merge(bds))
		}
	}

	// Before and After are one fused statistics pass each, under the host
	// budget. PAPᵀ is built only to be returned, in row blocks under the
	// same budget and from the symmetry answer above, and then After is
	// read off its sorted rows; otherwise After
	// runs over a's rows through the inverse of Perm, which the pass that
	// validates Perm yields.
	res.Before = newStats(a.csr.OrderStats(nil, h))
	if wantMatrix {
		p, err := a.csr.PermuteChecked(res.Perm, sym, h)
		if err != nil {
			return nil, nil, fmt.Errorf("rcm: internal error: backend returned an invalid permutation: %w", err)
		}
		res.After = newStats(p.OrderStats(nil, h))
		return res, wrap(p), nil
	}
	inv, err := spmat.InvertChecked(res.Perm, a.csr.N)
	if err != nil {
		return nil, nil, fmt.Errorf("rcm: internal error: backend returned an invalid permutation: %w", err)
	}
	res.After = newStats(a.csr.OrderStats(inv, h))
	return res, nil, nil
}

// hostThreads is the worker budget of the facade's own passes over the
// input: the symmetry check, the Before/After statistics and the PAPᵀ
// OrderMatrix returns. It is
// WithThreads, except for a distributed RCM run, which simulates procs ×
// threads cores (its ranks, run on up to GOMAXPROCS worker goroutines, and
// their modelled threads): there the passes use that many, capped at
// GOMAXPROCS. Every pass returns the same answer at any budget, so the
// budget moves no output.
func (c config) hostThreads() int {
	if c.ordering == RCM && c.backend == Distributed {
		return min(c.procs*c.threads, runtime.GOMAXPROCS(0))
	}
	return c.threads
}

// coreOptions is the facade's validation layer: it vets every resolved
// option against the engines' preconditions — returning descriptive errors
// for the malformed inputs that would otherwise panic deep inside a kernel
// (non-square process grids, empty matrices, zero worker counts) — and
// translates the starting-vertex policy into the engine's Options. The
// MinDegree root is resolved by the engine's MinDegreeVertex policy, next to
// the other start-vertex policies; the facade never scans graph internals
// itself.
func (c config) coreOptions(g *spmat.CSR) (core.Options, error) {
	if g.N == 0 {
		return core.Options{}, fmt.Errorf("rcm: empty matrix (n = 0 has no ordering)")
	}
	switch c.ordering {
	case RCM, AMD, Sloan:
	default:
		return core.Options{}, fmt.Errorf("rcm: unknown ordering %v", c.ordering)
	}
	switch c.backend {
	case Sequential, Algebraic, Shared, Distributed:
	default:
		return core.Options{}, fmt.Errorf("rcm: unknown backend %v", c.backend)
	}
	switch c.sortMode {
	case SortFull, SortLocal, SortNone:
	default:
		return core.Options{}, fmt.Errorf("rcm: unknown sort mode %v", c.sortMode)
	}
	if c.start != -1 && (c.start < 0 || c.start >= g.N) {
		return core.Options{}, fmt.Errorf("rcm: start vertex %d outside 0..%d", c.start, g.N-1)
	}
	if c.threads < 1 {
		return core.Options{}, fmt.Errorf("rcm: threads must be >= 1, got %d", c.threads)
	}
	if c.procs < 1 {
		return core.Options{}, fmt.Errorf("rcm: procs must be >= 1, got %d", c.procs)
	}
	if q := grid.Isqrt(c.procs); c.backend == Distributed && q*q != c.procs {
		return core.Options{}, fmt.Errorf("rcm: distributed backend needs a square process count, got %d", c.procs)
	}
	if c.dirAlpha < 0 || c.dirBeta < 0 {
		return core.Options{}, fmt.Errorf("rcm: direction thresholds must be >= 0, got alpha=%d beta=%d", c.dirAlpha, c.dirBeta)
	}
	if c.compThresh < 0 {
		return core.Options{}, fmt.Errorf("rcm: component threshold must be >= 0 (0 selects the default %d), got %d", DefaultComponentThreshold, c.compThresh)
	}
	switch c.direction {
	case Auto, TopDown, BottomUp:
	default:
		return core.Options{}, fmt.Errorf("rcm: unknown direction %v", c.direction)
	}
	if c.bcSet && c.heuristic != BiCriteria {
		return core.Options{}, fmt.Errorf("rcm: WithBiCriteriaWeights requires WithStartHeuristic(BiCriteria), got %v", c.heuristic)
	}

	opt := core.Options{
		Start:     c.start,
		NoReverse: c.noReverse,
		Direction: core.Direction(c.direction),
		DirAlpha:  c.dirAlpha,
		DirBeta:   c.dirBeta,
	}
	switch c.heuristic {
	case PseudoPeripheral:
		// The search refines whatever the start is.
	case BiCriteria:
		pol := core.BiCriteriaPolicy{WidthWeight: int64(c.bcWidthW), HeightWeight: int64(c.bcHeightW)}
		if err := pol.Validate(); err != nil {
			return core.Options{}, fmt.Errorf("rcm: bi-criteria weights must be >= 0, got width=%d height=%d", c.bcWidthW, c.bcHeightW)
		}
		if c.bcSet && c.bcWidthW == 0 && c.bcHeightW == 0 {
			return core.Options{}, fmt.Errorf("rcm: bi-criteria weights must not both be zero")
		}
		opt.Policy = pol
	case MinDegree:
		opt.SkipPeripheral = true
		if opt.Start < 0 {
			opt.Start = core.MinDegreeVertex(g)
		}
	case FirstVertex:
		opt.SkipPeripheral = true
	default:
		return core.Options{}, fmt.Errorf("rcm: unknown start heuristic %v", c.heuristic)
	}
	return opt, nil
}

// engine returns the RCM engine of the configured backend and records its
// parallel configuration in res. The Distributed engine appends each run's
// modelled breakdown to *bds; Result.Modeled is their merge, which for a
// single run is that run's breakdown bit for bit.
func (c config) engine(res *Result, bds *[]tally.Breakdown) func(*spmat.CSR, core.Options) *core.Ordering {
	switch c.backend {
	case Algebraic:
		// Algorithms 3 and 4 on the distributed engine at p = 1. The
		// configured procs, sort mode, seed and hypersparse flag are not
		// forwarded, and the Result keeps the sequential backends' 1/1
		// configuration and nil Modeled.
		return func(g *spmat.CSR, o core.Options) *core.Ordering {
			return &core.Distributed(g, core.DistOptions{Procs: 1, Options: o}).Ordering
		}
	case Shared:
		res.Threads = c.threads
		return func(g *spmat.CSR, o core.Options) *core.Ordering {
			return core.SharedOpt(g, c.threads, o)
		}
	case Distributed:
		res.Procs, res.Threads = c.procs, c.threads
		model := tally.Edison().WithThreads(c.threads)
		return func(g *spmat.CSR, o core.Options) *core.Ordering {
			d := core.Distributed(g, core.DistOptions{
				Procs:          c.procs,
				Model:          model,
				SortMode:       core.SortMode(c.sortMode),
				RandomPermSeed: c.seed,
				Hypersparse:    c.hypersparse,
				Options:        o,
			})
			*bds = append(*bds, d.Breakdown)
			return &d.Ordering
		}
	}
	return core.SequentialOpt
}

// fill copies the engine ordering into the public Result.
func fill(res *Result, o *core.Ordering) {
	res.Perm = o.Perm
	res.PseudoDiameter = o.PseudoDiameter
	res.Components = o.Components
}
