package core

import (
	"runtime"

	"repro/internal/par"
	"repro/internal/psort"
	"repro/internal/spmat"
)

// Shared computes the RCM ordering with a level-synchronous shared-memory
// parallel algorithm in the style of Karantasis et al. (SC'14), which is
// what the SpMP library the paper compares against implements. Frontier
// expansion is parallelised across threads goroutines, and each level runs
// either top-down (scan the frontier's adjacency) or bottom-up (scan the
// unvisited vertices' adjacency under a frontier-position mask), selected by
// the Beamer heuristic of Options.Direction; the per-level merge keeps the
// deterministic contract (minimum-label parent, ties by degree then id), so
// the result is identical to Sequential in every direction mode.
func Shared(a *spmat.CSR, threads int) *Ordering {
	return SharedOpt(a, threads, DefaultOptions())
}

// SharedOpt is Shared with explicit options. threads is capped at
// GOMAXPROCS: every further block costs a goroutine and a candidate buffer
// per level and adds no parallelism.
func SharedOpt(a *spmat.CSR, threads int, opt Options) *Ordering {
	deg := a.Degrees()
	labels, next := unlabeled(a.N)
	w := &sharedWork{a: a, deg: deg, threads: max(1, min(threads, runtime.GOMAXPROCS(0))), opt: opt,
		visited: make([]bool, a.N), fpos: make([]int, a.N)}
	for i := range w.fpos {
		w.fpos[i] = -1
	}
	for _, d := range deg {
		w.mu += int64(d)
	}
	nv := int64(0)
	res := &Ordering{}
	res.Components, res.PseudoDiameter = eachComponent(opt, next, w, func(root int) {
		nv = w.order(labels, root, nv)
	})
	res.Perm = permFromLabels(labels, !opt.NoReverse)
	return res
}

type sharedWork struct {
	a       *spmat.CSR
	deg     []int
	threads int
	opt     Options
	sortWS  psort.Scratch[candidate]
	// visited marks the labeled vertices between calls: order marks the
	// vertices it labels, and Sweep clears the marks it adds before it
	// returns, so no BFS pays for what earlier components labeled.
	visited []bool
	fpos    []int // position of each vertex in the current frontier, -1 outside
	queue   []int // the current BFS's vertices, level after level
	// mu counts the edges incident to unlabeled vertices (Beamer's m_u),
	// maintained incrementally across levels and components.
	mu int64
}

// candidate is a (child, parent position) pair produced during expansion.
type candidate struct {
	child     int
	parentPos int
}

// expand collects candidate children of the frontier in parallel. visited
// must be stable during the call (children of the current level are not
// marked until the merge), so workers race only on reads.
func (w *sharedWork) expand(frontier []int) []candidate {
	parts := make([][]candidate, w.threads)
	par.Blocks(spmat.Blocks(len(frontier), w.threads), func(t, lo, hi int) {
		var out []candidate
		for pi := lo; pi < hi; pi++ {
			v := frontier[pi]
			for _, u := range w.a.Row(v) {
				if u != v && !w.visited[u] {
					out = append(out, candidate{child: u, parentPos: pi})
				}
			}
		}
		parts[t] = out
	})
	var all []candidate
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// expandBottomUp is the direction-optimized level expansion: every unvisited
// vertex scans its own adjacency for frontier members (their positions are
// published in w.fpos by the caller) and keeps the minimum frontier position
// — the minimum-label parent, since frontier order is label order. With
// labelFree (the peripheral search, where only the discovered set matters)
// the scan stops at the first frontier neighbour. Workers read fpos/visited
// and write disjoint per-thread parts, so there are no races; thread parts
// cover ascending vertex ranges, so the concatenation is sorted by child and
// duplicate-free — exactly the postcondition of dedupe(expand(...)), which
// keeps the downstream merge byte-identical between the two directions.
func (w *sharedWork) expandBottomUp(labelFree bool) []candidate {
	parts := make([][]candidate, w.threads)
	par.Blocks(spmat.Blocks(w.a.N, w.threads), func(t, lo, hi int) {
		var out []candidate
		for u := lo; u < hi; u++ {
			if w.visited[u] {
				continue
			}
			best := -1
			for _, v := range w.a.Row(u) {
				p := w.fpos[v]
				if p < 0 {
					continue
				}
				if labelFree {
					best = p
					break
				}
				if best < 0 || p < best {
					best = p
				}
			}
			if best >= 0 {
				out = append(out, candidate{child: u, parentPos: best})
			}
		}
		parts[t] = out
	})
	var all []candidate
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// level runs one BFS level in the direction pol picks, returning the merged,
// child-sorted, duplicate-free candidate list. Counts for the *next*
// decision are returned alongside (cnt = frontier size, mf = its incident
// edges).
func (w *sharedWork) level(pol *dirPolicy, frontier []int, curCnt, curMf, mu int64, labelFree bool) []candidate {
	if pol.step(curCnt, curMf, mu) {
		for k, v := range frontier {
			w.fpos[v] = k
		}
		cands := w.expandBottomUp(labelFree)
		for _, v := range frontier {
			w.fpos[v] = -1
		}
		return cands
	}
	return w.dedupe(w.expand(frontier))
}

// dedupe keeps, for every child, the candidate with the smallest parent
// position (the minimum-label parent of the deterministic contract).
// Candidates arrive sorted by parent position (expand's thread parts cover
// contiguous frontier ranges, concatenated in thread order), so one stable
// linear-time sort by child realises the (child, parentPos) order.
func (w *sharedWork) dedupe(cands []candidate) []candidate {
	psort.KeyedWS(&w.sortWS, cands, func(c candidate) uint64 { return uint64(c.child) }, w.threads)
	out := cands[:0]
	for _, c := range cands {
		if len(out) == 0 || out[len(out)-1].child != c.child {
			out = append(out, c)
		}
	}
	return out
}

// candEdges sums child degrees over a candidate list (the next m_f).
func (w *sharedWork) candEdges(cands []candidate) int64 {
	var mf int64
	for _, c := range cands {
		mf += int64(w.deg[c.child])
	}
	return mf
}

// Sweep is the Shared engine's rooted-BFS oracle for the start-vertex
// policies: one parallel label-free BFS from root, summarized as its level
// structure. Levels may run bottom-up with early exit, which is legal here
// because the search is label-free (levels are direction-independent), and
// bottom-up levels never rescan the labeled components, which are visited
// already (output-neutral: cross-component adjacency is empty).
func (w *sharedWork) Sweep(root, maxCand int) LevelStructure {
	pol := newDirPolicy(w.opt, w.a.N)
	mu := w.mu - int64(w.deg[root])
	curCnt, curMf := int64(1), int64(w.deg[root])
	w.visited[root] = true
	q := append(w.queue[:0], root)
	lo, ecc, width := 0, 0, int64(1)
	for {
		cands := w.level(&pol, q[lo:], curCnt, curMf, mu, true)
		if len(cands) == 0 {
			break
		}
		lo = len(q)
		for _, c := range cands {
			q = append(q, c.child)
			w.visited[c.child] = true
		}
		width = max(width, int64(len(cands)))
		curCnt, curMf = int64(len(cands)), w.candEdges(cands)
		mu -= curMf
		ecc++
	}
	for _, v := range q {
		w.visited[v] = false
	}
	w.queue = q
	ls := LevelStructure{Root: root, Height: ecc, Width: width}
	if maxCand > 1 {
		ls.RootDeg = int64(w.deg[root])
	}
	for _, v := range q[lo:] {
		ls.Candidates = pushCandidate(ls.Candidates, Candidate{ID: v, Deg: int64(w.deg[v])}, maxCand)
	}
	return ls
}

// order runs the labeling BFS: per level, parallel expansion in the chosen
// direction, deterministic merge sorted by (parent position, degree, id),
// then label assignment.
func (w *sharedWork) order(labels []int64, root int, nv int64) int64 {
	pol := newDirPolicy(w.opt, w.a.N)
	labels[root] = nv
	nv++
	w.visited[root] = true
	w.mu -= int64(w.deg[root])
	curCnt, curMf := int64(1), int64(w.deg[root])
	q := append(w.queue[:0], root)
	lo := 0
	for {
		cands := w.level(&pol, q[lo:], curCnt, curMf, w.mu, false)
		if len(cands) == 0 {
			break
		}
		// The (parentPos, degree, child) order of the deterministic merge,
		// as stable linear-time passes (both expansion directions leave
		// cands sorted by the unique child, so only degree and parentPos
		// passes remain).
		psort.LexWS(&w.sortWS, cands, w.threads,
			func(c candidate) uint64 { return uint64(c.parentPos) },
			func(c candidate) uint64 { return uint64(w.deg[c.child]) })
		lo = len(q)
		for k, c := range cands {
			q = append(q, c.child)
			w.visited[c.child] = true
			labels[c.child] = nv + int64(k)
		}
		nv += int64(len(cands))
		curCnt, curMf = int64(len(cands)), w.candEdges(cands)
		w.mu -= curMf
	}
	w.queue = q
	return nv
}
