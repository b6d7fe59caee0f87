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

// Sequential computes the RCM ordering with the classic queue-based
// algorithm (Algorithms 1 and 2 of the paper).
func Sequential(a *spmat.CSR) *Ordering { return SequentialOpt(a, DefaultOptions()) }

// SequentialOpt is Sequential with explicit options.
func SequentialOpt(a *spmat.CSR, opt Options) *Ordering {
	n := a.N
	deg := a.Degrees()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = -1
	}
	res := &Ordering{}
	nv := int64(0)
	scratch := &seqScratch{
		levels: make([]int, n),
		queue:  make([]int, 0, n),
	}
	// cursor persists across components: labels are never unset, so the
	// first-unlabeled scan resumes where the previous one stopped — O(n)
	// total instead of O(n·components) on component-heavy inputs.
	cursor := 0
	for comp := 0; ; comp++ {
		start := -1
		for ; cursor < n; cursor++ {
			if labels[cursor] < 0 {
				start = cursor
				break
			}
		}
		if start == -1 {
			break
		}
		if comp == 0 && opt.Start >= 0 {
			start = opt.Start
		}
		r := start
		if !opt.SkipPeripheral {
			var ecc int
			r, ecc = opt.policy().PickRoot(start, &seqSweeper{a: a, deg: deg, s: scratch})
			if ecc > res.PseudoDiameter {
				res.PseudoDiameter = ecc
			}
		}
		nv = cmComponent(a, deg, labels, r, nv, &scratch.sortWS)
		res.Components++
	}
	res.Perm = permFromLabels(labels, !opt.NoReverse)
	return res
}

type seqScratch struct {
	levels []int
	queue  []int
	sortWS psort.Scratch[int]
}

// bfsLevels runs a BFS from r, filling scratch.levels (-1 outside the
// reached set) and returning the eccentricity, the maximum level size and
// the vertices of the last level.
func bfsLevels(a *spmat.CSR, r int, s *seqScratch) (ecc int, width int64, last []int) {
	for i := range s.levels {
		s.levels[i] = -1
	}
	s.levels[r] = 0
	width = 1
	frontier := append(s.queue[:0], r)
	var next []int
	for {
		next = next[:0]
		for _, v := range frontier {
			for _, w := range a.Row(v) {
				if w != v && s.levels[w] < 0 {
					s.levels[w] = s.levels[v] + 1
					next = append(next, w)
				}
			}
		}
		if len(next) == 0 {
			return ecc, width, frontier
		}
		if int64(len(next)) > width {
			width = int64(len(next))
		}
		frontier = append(frontier[:0], next...)
		ecc++
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

// pseudoPeripheral implements Algorithm 2/4 semantics: repeat BFS from the
// minimum-(degree, id) vertex of the last level while the eccentricity
// improves; return the final candidate and the best eccentricity seen.
// Kept as the direct sequential entry point of the default policy.
func pseudoPeripheral(a *spmat.CSR, deg []int, start int, s *seqScratch) (r, ecc int) {
	return PeripheralPolicy{}.PickRoot(start, &seqSweeper{a: a, deg: deg, s: s})
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
