package core

import (
	"runtime"

	"repro/internal/par"
	"repro/internal/spmat"
)

// Component-aware scheduling: instead of walking components one after
// another behind the engines' first-unlabeled cursor, detect them up front
// with the parallel union-find pass of spmat.ParallelComponents, order the
// small ones concurrently as independent sequential jobs across a worker
// pool, route the big ones through the full engine, and stitch the
// per-component labelings back together in the deterministic processing
// order. The output is byte-identical to the unscheduled engines:
//
//   - The deterministic contract is relabeling-equivariant. Extracting a
//     component as a subgraph with ascending-id relabeling preserves degrees
//     and the relative order of vertex ids, so every (degree, id) tie-break,
//     the pseudo-peripheral search, and the (parent label, degree, id)
//     frontier sort make the identical choices on the subgraph that they
//     would make on the full graph restricted to that component.
//   - All engines produce the identical permutation under the contract, so
//     ordering a small component with the Sequential engine gives the same
//     bytes the requested engine would have produced.
//   - Components are labeled in the same order the cursor would process
//     them: ascending smallest-vertex-id, except that a pinned start vertex
//     promotes its component to the front (exactly what the engines'
//     "first component starts at opt.Start" rule does today).
//   - The final reversal is global, so per-component runs produce plain CM
//     labels (NoReverse) into disjoint label ranges; concurrency cannot
//     reorder anything.
//
// The only caller-visible exceptions are distributed runs whose ordering is
// not relabeling-equivariant — SortLocal/SortNone (labels depend on which
// rank owns which vertex id) and the random load-balancing permutation —
// which the facade routes past the scheduler.

// DefaultComponentThreshold is the component size at and above which the
// full engine runs; smaller components are batched across the worker pool.
const DefaultComponentThreshold = 4096

// ScheduleOptions configures a component-scheduled ordering.
type ScheduleOptions struct {
	// Threshold is the minimum size routed to the full engine; 0 selects
	// DefaultComponentThreshold.
	Threshold int
	// Workers sizes the small-component worker pool (and the parallel
	// component detection); 0 selects GOMAXPROCS.
	Workers int
	// Options are the engine options of the run (start vertex, policy,
	// direction, reversal).
	Options
	// Big orders one extracted component with the full engine; nil selects
	// SequentialOpt. Big calls run one at a time on one goroutine, in
	// processing order, so stateful closures (e.g. collecting modelled
	// breakdowns) need no locking.
	Big func(sub *spmat.CSR, opt Options) *Ordering
}

// ScheduleStats reports what the component scheduler did.
type ScheduleStats struct {
	// Components is the number of connected components found.
	Components int
	// LargestSize and SmallestSize bound the component sizes.
	LargestSize, SmallestSize int
	// Batched components ran as concurrent sequential jobs; Direct ones
	// went through the full engine.
	Batched, Direct int
	// Threshold is the resolved size threshold.
	Threshold int
}

// ScheduledOrder computes the ordering of a under component scheduling. For
// a connected graph it degenerates to one full-engine run after the
// component pass; otherwise every component is extracted and ordered
// independently, then the labelings are stitched in processing order.
func ScheduledOrder(a *spmat.CSR, so ScheduleOptions) (*Ordering, *ScheduleStats) {
	thr := so.Threshold
	if thr <= 0 {
		thr = DefaultComponentThreshold
	}
	workers := so.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	big := so.Big
	if big == nil {
		big = SequentialOpt
	}
	comp, ncomp := a.ParallelComponents(workers)
	stats := &ScheduleStats{Components: ncomp, Threshold: thr}
	if ncomp <= 1 {
		// Connected (or empty): there is nothing to overlap, so the full
		// engine runs on the original graph regardless of the threshold.
		if ncomp == 1 {
			stats.LargestSize, stats.SmallestSize = a.N, a.N
			stats.Direct = 1
		}
		return big(a, so.Options), stats
	}

	verts, local := spmat.ComponentVertices(comp, ncomp)
	sizes := spmat.ComponentSizes(comp, ncomp)
	stats.SmallestSize = a.N
	for _, sz := range sizes {
		if sz > stats.LargestSize {
			stats.LargestSize = sz
		}
		if sz < stats.SmallestSize {
			stats.SmallestSize = sz
		}
	}

	// Processing order: ascending component id (= ascending smallest vertex
	// id), with a pinned start's component promoted to the front — the
	// engines seed their first BFS at opt.Start wherever it lives, then let
	// the cursor pick up the rest in id order.
	order := make([]int, 0, ncomp)
	pinned := -1
	if so.Start >= 0 && so.Start < a.N {
		pinned = comp[so.Start]
		order = append(order, pinned)
	}
	for c := 0; c < ncomp; c++ {
		if c != pinned {
			order = append(order, c)
		}
	}

	// Label base of each component in processing order.
	base := make([]int64, ncomp)
	var acc int64
	for _, c := range order {
		base[c] = acc
		acc += int64(sizes[c])
	}

	labels := make([]int64, a.N)
	diams := make([]int, ncomp)
	run := func(c int, engine func(*spmat.CSR, Options) *Ordering) {
		sub := spmat.Subgraph(a, verts[c], local)
		lo := so.Options
		lo.NoReverse = true // the reversal is global, applied at the stitch
		lo.Start = -1
		if c == pinned {
			lo.Start = int(local[so.Start])
		}
		o := engine(sub, lo)
		vs, b := verts[c], base[c]
		for k, lv := range o.Perm {
			labels[vs[lv]] = b + int64(k)
		}
		diams[c] = o.PseudoDiameter
	}

	var smalls []int
	for _, c := range order {
		if sizes[c] < thr {
			smalls = append(smalls, c)
		}
	}
	stats.Batched = len(smalls)
	stats.Direct = ncomp - len(smalls)

	// Small components drain through a worker queue while the big ones run
	// one at a time, in processing order, on the other arm's goroutine. All
	// writes land in disjoint label ranges and disjoint diams slots, so the
	// interleaving is output-invisible.
	par.For(2, func(arm int) {
		if arm == 0 {
			par.Queue(workers, len(smalls), func(_, i int) { run(smalls[i], SequentialOpt) })
			return
		}
		for _, c := range order {
			if sizes[c] >= thr {
				run(c, big)
			}
		}
	})

	res := &Ordering{Components: ncomp}
	for _, d := range diams {
		if d > res.PseudoDiameter {
			res.PseudoDiameter = d
		}
	}
	res.Perm = permFromLabels(labels, !so.NoReverse)
	return res, stats
}
