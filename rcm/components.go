package rcm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/spmat"
)

// Components is the connected-component structure of a matrix's graph.
type Components struct {
	// Count is the number of connected components.
	Count int
	// Label holds the component id of every vertex. Components are
	// numbered in order of their smallest vertex id, so the labeling is
	// deterministic and independent of the worker count.
	Label []int
	// Sizes holds the vertex count of every component, indexed by label.
	Sizes []int
}

// ConnectedComponents computes the connected components of the matrix's
// graph with a parallel union-find pass over the sparsity pattern. The
// pattern is treated as undirected (structurally non-symmetric matrices are
// analyzed as A ∪ Aᵀ, matching Order's view of the graph; WithoutSymmetrize
// is irrelevant here because connectivity is symmetric by definition).
// WithThreads sets the worker count of the symmetry check and the
// union-find; the output is identical for every worker count. An empty
// matrix has zero components.
func ConnectedComponents(a *Matrix, opts ...Option) (*Components, error) {
	if a == nil || a.csr == nil {
		return nil, fmt.Errorf("rcm: nil matrix")
	}
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}
	g := a.csr
	workers := c.poolWorkers()
	if !g.IsSymmetricPatternPar(workers) {
		g = g.Symmetrize()
	}
	label, count := g.ParallelComponents(workers)
	return &Components{
		Count: count,
		Label: label,
		Sizes: spmat.ComponentSizes(label, count),
	}, nil
}

// scheduled reports whether this run takes the component scheduler: enabled
// by WithComponentScheduling, except for the distributed configurations
// whose output depends on global vertex numbering (SortLocal/SortNone
// labeling and the random load-balancing permutation), which fall back to
// the unscheduled engine so the permutation never changes.
func (c config) scheduled() bool {
	if !c.compSched {
		return false
	}
	if c.backend == Distributed && (c.sortMode != SortFull || c.seed != 0) {
		return false
	}
	return true
}

// poolWorkers resolves the worker count for the component passes: an
// explicit WithThreads wins; otherwise 0 lets the pool size to GOMAXPROCS.
func (c config) poolWorkers() int {
	if c.threadsSet {
		return c.threads
	}
	return 0
}

// runScheduled runs the component scheduler with big, the configured
// backend's engine, ordering the components at or above the threshold, and
// fills the Result. copt is the validated engine option set produced by
// coreOptions.
func (c config) runScheduled(g *spmat.CSR, copt core.Options, big func(*spmat.CSR, core.Options) *core.Ordering, res *Result) {
	ord, st := core.ScheduledOrder(g, core.ScheduleOptions{
		Threshold: c.compThresh,
		Workers:   c.poolWorkers(),
		Options:   copt,
		Big:       big,
	})
	fill(res, ord)
	res.ComponentStats = &ComponentStats{
		Count:        st.Components,
		LargestSize:  st.LargestSize,
		SmallestSize: st.SmallestSize,
		Batched:      st.Batched,
		Direct:       st.Direct,
		Threshold:    st.Threshold,
	}
}
