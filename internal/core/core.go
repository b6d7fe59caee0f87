// Package core implements the paper's primary contribution: the Reverse
// Cuthill-McKee ordering, in three interchangeable engines that share one
// deterministic contract.
//
//   - Sequential: the classic queue-based RCM of George & Liu (Algorithm 1
//     of the paper) with the pseudo-peripheral vertex finder (Algorithm 2).
//   - Shared: a level-synchronous shared-memory parallel RCM in the style
//     of Karantasis et al. / SpMP, the paper's shared-memory baseline
//     (Table II).
//   - Distributed: the paper's matrix-algebraic formulation (Algorithms 3
//     and 4 over the Table I primitives) on the 2D decomposition of package
//     distmat, run on the simulated bulk-synchronous runtime of package
//     comm. At p = 1 it is the single-process form of the same algorithm,
//     which the facade's Algebraic backend runs.
//
// The deterministic contract: ties between vertices with equal degree are
// broken by vertex id; each newly discovered vertex attaches to its
// minimum-label visited neighbour (the (select2nd, min) semiring); the
// pseudo-peripheral search starts from the smallest vertex id of each
// component and picks the minimum-(degree, id) vertex of the last BFS
// level; components are processed in order of their smallest vertex id.
// Under this contract all three engines produce the identical
// permutation — the reproduction's primary correctness oracle, exercised
// heavily by the test suite.
package core

import (
	"repro/internal/psort"
	"repro/internal/spmat"
)

// Ordering is the result of an RCM computation.
type Ordering struct {
	// Perm is the permutation in symrcm convention: Perm[k] is the old
	// index of the row/column placed at position k of PAPᵀ.
	Perm []int
	// PseudoDiameter is the largest eccentricity estimate found by the
	// pseudo-peripheral search, maximized over components (the paper's
	// Fig. 3 reports this per matrix).
	PseudoDiameter int
	// Components is the number of connected components processed.
	Components int
}

// Options controls an ordering computation.
type Options struct {
	// Start pins the starting vertex of the first component; -1 (the
	// default) lets the start-vertex search run from the smallest vertex
	// id. Used by tests and by callers that know a good vertex.
	Start int
	// SkipPeripheral uses Start (or the smallest unvisited id) directly
	// as the root without any start-vertex search.
	SkipPeripheral bool
	// Policy selects the start-vertex search that refines each component's
	// seed into the BFS root; nil selects PeripheralPolicy (the paper's
	// Algorithm 2/4). Ignored when SkipPeripheral is set.
	Policy StartPolicy
	// NoReverse skips the final reversal, giving the plain Cuthill-McKee
	// order instead of RCM (the default, false).
	NoReverse bool
	// Direction selects the traversal direction policy of the
	// level-synchronous engines (DirAuto by default); see Direction.
	Direction Direction
	// DirAlpha and DirBeta override the Beamer switching thresholds of
	// DirAuto (0 selects DefaultDirAlpha / DefaultDirBeta).
	DirAlpha, DirBeta int
}

// DefaultOptions returns the standard RCM configuration.
func DefaultOptions() Options { return Options{Start: -1} }

// MinDegreeVertex returns the global minimum-(degree, id) vertex of the
// graph — the classic Cuthill-McKee starting prescription. It lives here
// next to the other start-vertex policies (pseudo-peripheral search, fixed
// start) so facades can select it without scanning graph internals
// themselves. Returns -1 for an empty graph.
func MinDegreeVertex(a *spmat.CSR) int {
	if a.N == 0 {
		return -1
	}
	deg := a.Degrees()
	best := 0
	for v := 1; v < a.N; v++ {
		if deg[v] < deg[best] {
			best = v
		}
	}
	return best
}

// permFromLabels turns a CM labelling into a new→old permutation: position
// k gets the vertex labelled k, or with reverse (RCM) the vertex labelled
// n-1-k.
func permFromLabels(labels []int64, reverse bool) []int {
	n := len(labels)
	perm := make([]int, n)
	for v := 0; v < n; v++ {
		l := int(labels[v])
		if reverse {
			l = n - 1 - l
		}
		perm[l] = v
	}
	return perm
}

// unlabeled returns n labels, all -1, and the component cursor of
// eachComponent: next returns the smallest unlabeled vertex, or -1 once
// every vertex is labeled. Labels are never unset, so each scan resumes
// where the last one stopped — O(n) over a run, not O(n·components).
func unlabeled(n int) (labels []int64, next func() int) {
	labels = make([]int64, n)
	for i := range labels {
		labels[i] = -1
	}
	cursor := 0
	next = func() int {
		for ; cursor < n; cursor++ {
			if labels[cursor] < 0 {
				return cursor
			}
		}
		return -1
	}
	return labels, next
}

// eachComponent is the component loop of every engine (Algorithm 1's outer
// loop): next seeds each component, or returns -1 when none is left; a
// pinned opt.Start replaces the first seed; the start policy refines the
// seed into the root through sw unless SkipPeripheral is set; label orders
// the component from that root. It returns the component count and the
// pseudo-diameter, the largest eccentricity the policy reported.
func eachComponent(opt Options, next func() int, sw Sweeper, label func(root int)) (comps, diam int) {
	for start := next(); start >= 0; start = next() {
		if comps == 0 && opt.Start >= 0 {
			start = opt.Start
		}
		root := start
		if !opt.SkipPeripheral {
			var ecc int
			root, ecc = opt.policy().PickRoot(start, sw)
			diam = max(diam, ecc)
		}
		label(root)
		comps++
	}
	return comps, diam
}

// Sequential computes the RCM ordering with the classic queue-based
// algorithm (Algorithms 1 and 2 of the paper).
func Sequential(a *spmat.CSR) *Ordering { return SequentialOpt(a, DefaultOptions()) }

// SequentialOpt is Sequential with explicit options.
func SequentialOpt(a *spmat.CSR, opt Options) *Ordering {
	deg := a.Degrees()
	labels, next := unlabeled(a.N)
	s := newSeqScratch(a.N)
	nv := int64(0)
	res := &Ordering{}
	res.Components, res.PseudoDiameter = eachComponent(opt, next, &seqSweeper{a: a, deg: deg, s: s}, func(r int) {
		nv = cmComponent(a, deg, labels, r, nv, &s.sortWS)
	})
	res.Perm = permFromLabels(labels, !opt.NoReverse)
	return res
}

// seqScratch is the per-run scratch of the queue-based sweeps: levels is
// -1 everywhere except on queue, the vertices the last sweep reached.
type seqScratch struct {
	levels []int
	queue  []int
	sortWS psort.Scratch[int]
}

func newSeqScratch(n int) *seqScratch {
	s := &seqScratch{levels: make([]int, n), queue: make([]int, 0, n)}
	for i := range s.levels {
		s.levels[i] = -1
	}
	return s
}

// bfsLevels runs a BFS from r, filling s.levels (-1 outside the reached
// set) and returning the eccentricity, the maximum level size and the
// vertices of the last level. The BFS is one queue whose level boundaries
// are indices, and only the previous sweep's queue is reset, so a sweep
// costs what it and its predecessor reached, not n.
func bfsLevels(a *spmat.CSR, r int, s *seqScratch) (ecc int, width int64, last []int) {
	for _, v := range s.queue {
		s.levels[v] = -1
	}
	s.levels[r] = 0
	q := append(s.queue[:0], r)
	width = 1
	for lo := 0; ; ecc++ {
		hi := len(q)
		for _, v := range q[lo:hi] {
			for _, w := range a.Row(v) {
				if w != v && s.levels[w] < 0 {
					s.levels[w] = ecc + 1
					q = append(q, w)
				}
			}
		}
		if len(q) == hi {
			s.queue = q
			return ecc, width, q[lo:hi]
		}
		width = max(width, int64(len(q)-hi))
		lo = hi
	}
}

// seqSweeper is the Sequential engine's rooted-BFS oracle for the
// start-vertex policies.
type seqSweeper struct {
	a   *spmat.CSR
	deg []int
	s   *seqScratch
}

// Sweep summarizes one classic queue-based BFS.
func (sw *seqSweeper) Sweep(root, maxCand int) LevelStructure {
	ecc, width, last := bfsLevels(sw.a, root, sw.s)
	ls := LevelStructure{Root: root, Height: ecc, Width: width}
	if maxCand > 1 {
		ls.RootDeg = int64(sw.deg[root])
	}
	for _, v := range last {
		ls.Candidates = pushCandidate(ls.Candidates, Candidate{ID: v, Deg: int64(sw.deg[v])}, maxCand)
	}
	return ls
}

// cmComponent labels one connected component in Cuthill-McKee order starting
// from r, continuing the label counter nv, and returns the updated counter.
// The per-vertex child sort is the linear-time labeling: children arrive in
// ascending id (CSR rows are sorted), so a stable counting sort by degree
// alone realises the (degree, id) order of the deterministic contract.
func cmComponent(a *spmat.CSR, deg []int, labels []int64, r int, nv int64, ws *psort.Scratch[int]) int64 {
	order := []int{r}
	labels[r] = nv
	nv++
	var kids []int
	// Built once: the radix path hands it to goroutines, so it escapes.
	key := func(v int) uint64 { return uint64(deg[v]) }
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		kids = kids[:0]
		for _, w := range a.Row(v) {
			if w != v && labels[w] < 0 {
				labels[w] = -2 // claimed, label below
				kids = append(kids, w)
			}
		}
		psort.KeyedWS(ws, kids, key, 1)
		for _, w := range kids {
			labels[w] = nv
			nv++
			order = append(order, w)
		}
	}
	return nv
}
