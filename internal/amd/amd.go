// Package amd implements the approximate minimum degree (AMD) ordering of
// Amestoy, Davis & Duff with the shared-memory parallelization strategy of
// "Parallelizing the Approximate Minimum Degree Ordering Algorithm"
// (arXiv:2504.17097, the source paper's group): multiple elimination.
// Instead of eliminating one minimum-degree pivot at a time, each round
// selects a distance-2 independent set of minimum-degree pivots — pivots
// whose quotient-graph neighborhoods are pairwise disjoint — and eliminates
// them all. Because the neighborhoods are disjoint, element formation, list
// pruning, the aggregated external-degree updates and supervariable
// detection for different pivots touch disjoint state and run in parallel
// without synchronization beyond a barrier between phases.
//
// Determinism contract (the same one the RCM engines obey): the pivot set
// of a round is chosen by a sequential greedy sweep over the minimum-degree
// candidates in ascending vertex id — the (degree, id) tie-break — and
// every parallel phase writes only pivot-local state, so the permutation is
// byte-identical at any thread count. The golden and fuzz suites pin this.
//
// The quotient-graph machinery is the classic one: eliminated pivots become
// elements, variables keep a list of variable neighbours (adjV) and a list
// of adjacent elements (adjE), elements adjacent to a new pivot are
// absorbed into it, and the external degree of a variable i touched by a
// new element L_p is updated with the Amestoy-Davis-Duff three-term bound
//
//	d_i = min( alive − mass(i),  d_i + |L_p \ i|,  |A_i| + |L_p \ i| + Σ_e |L_e \ L_p| )
//
// where each |L_e \ L_p| comes from the aggregated w-trick: one sweep over
// the new element's members initializes w(e) = |L_e| and subtracts the mass
// of every member shared with L_p, so all set differences of one round cost
// a single pass over the touched adjacency lists. All sizes are in mass
// units (supervariable sizes), so absorbed variables stay accounted for.
package amd

import (
	"runtime"
	"slices"
	"sort"

	"repro/internal/par"
	"repro/internal/spmat"
)

// Vertex states of the quotient graph.
const (
	stAlive  int8 = iota // active (super)variable
	stPivot              // eliminated pivot: the vertex is now an element
	stMerged             // absorbed into another supervariable (see repr)
	stDead               // element absorbed into a newer element
)

// Order computes the AMD permutation of the symmetric pattern a using
// threads workers (values < 1 select GOMAXPROCS, and larger values are
// capped there). Perm[k] is the vertex eliminated at step k, in the symrcm
// convention of the rcm facade. The permutation is byte-identical at every
// thread count; the diagonal is ignored and isolated vertices are
// eliminated first among the degree-0 candidates of their round.
func Order(a *spmat.CSR, threads int) []int {
	s := newSolver(a, threads)
	for !s.done() {
		s.round()
	}
	return s.perm()
}

// solver is the quotient graph plus the round machinery. Adjacency lists
// are pruned lazily: adjV may hold absorbed variables (resolved through
// repr on read) and adjE may hold dead elements (skipped on read); the
// lists of the variables touched by a round are rebuilt clean — resolved,
// deduplicated, sorted — because those are exactly the lists the
// supervariable comparison and the degree formula consume.
type solver struct {
	n     int
	state []int8
	mass  []int // alive: supervariable size; pivots keep their final mass
	elMas []int // element e: Σ mass over members(e), frozen at creation
	deg   []int // alive: approximate external degree, in mass units
	adjV  [][]int
	adjE  [][]int
	membs [][]int // element -> member list (L_e)
	repr  []int   // absorbed variable -> representative
	kids  [][]int // variable -> variables absorbed into it, in merge order
	alive int     // Σ mass over alive variables

	rounds  [][]int // pivots per round, in selection (ascending id) order
	threads int
	scratch []*workerScratch

	// Sequential selection scratch: selMark is the per-round "pivot or
	// pivot neighbour" marking, nbrBuf the reusable neighbourhood buffer.
	selMark  []int
	selEpoch int
	nbrBuf   []int
	cands    []int
}

// workerScratch is one worker's private epoch-marked arrays: lMark marks
// the current pivot's L_p during list pruning, dMark deduplicates one
// adjacency list, and wVal/wMark carry the aggregated |L_e \ L_p| counts.
type workerScratch struct {
	lMark  []int
	lEpoch int
	dMark  []int
	dEpoch int
	wVal   []int
	wMark  []int
	wEpoch int
	buf    []int
	groups []memberKey
}

// memberKey sorts a pivot's members for supervariable detection: equal
// adjacency hashes land adjacent, ids ascending within a hash.
type memberKey struct {
	hash uint64
	id   int
}

// newSolver builds the quotient graph of a and one scratch set per worker.
// A scratch set is four n-int arrays, and no more than GOMAXPROCS workers
// run at once, so the worker count is capped there; threads < 1 selects it.
func newSolver(a *spmat.CSR, threads int) *solver {
	if procs := runtime.GOMAXPROCS(0); threads < 1 || threads > procs {
		threads = procs
	}
	n := a.N
	s := &solver{
		n:       n,
		state:   make([]int8, n),
		mass:    make([]int, n),
		elMas:   make([]int, n),
		deg:     make([]int, n),
		adjV:    make([][]int, n),
		adjE:    make([][]int, n),
		membs:   make([][]int, n),
		repr:    make([]int, n),
		kids:    make([][]int, n),
		alive:   n,
		threads: threads,
		selMark: make([]int, n),
	}
	// One backing array for the variable lists: pruning only shrinks a
	// list in place, so rows never outgrow their slot (capacity capped
	// with three-index slicing to keep a bug from silently corrupting a
	// neighbour's row).
	backing := make([]int, 0, a.NNZ())
	for i := 0; i < n; i++ {
		lo := len(backing)
		for _, j := range a.Row(i) {
			if j != i {
				backing = append(backing, j)
			}
		}
		s.adjV[i] = backing[lo:len(backing):len(backing)]
		s.deg[i] = len(s.adjV[i])
		s.mass[i] = 1
		s.repr[i] = i
	}
	s.scratch = make([]*workerScratch, threads)
	for k := range s.scratch {
		s.scratch[k] = &workerScratch{
			lMark: make([]int, n),
			dMark: make([]int, n),
			wVal:  make([]int, n),
			wMark: make([]int, n),
		}
	}
	return s
}

// done reports whether every vertex has been eliminated.
func (s *solver) done() bool { return s.alive == 0 }

// find resolves an absorbed variable to its representative. Chains are
// short (one link per merge) and the walk is read-only, so it is safe from
// any phase.
func (s *solver) find(v int) int {
	for s.state[v] == stMerged {
		v = s.repr[v]
	}
	return v
}

// round runs one multiple-elimination step: select a distance-2 independent
// set of minimum-degree pivots sequentially, then eliminate, merge and
// update degrees in parallel over the pivots, each phase a queue whose
// workers own one scratch each. A pivot's work reads and writes only its
// own neighbourhood (disjoint by construction), so the schedule cannot
// influence the outcome.
func (s *solver) round() {
	pivots := s.selectPivots()
	for _, p := range pivots {
		s.alive -= s.mass[p]
		s.state[p] = stPivot
	}
	s.rounds = append(s.rounds, pivots)
	aliveEnd := s.alive
	par.Queue(s.threads, len(pivots), func(w, i int) { s.eliminate(s.scratch[w], pivots[i]) })
	par.Queue(s.threads, len(pivots), func(w, i int) { s.mergeVariables(s.scratch[w], pivots[i]) })
	par.Queue(s.threads, len(pivots), func(w, i int) { s.updateDegrees(s.scratch[w], pivots[i], aliveEnd) })
}

// selectPivots is the sequential greedy sweep: among the alive variables of
// minimum approximate degree, in ascending id, a candidate is selected iff
// neither it nor any of its quotient-graph neighbours is already a selected
// pivot or a neighbour of one — a distance-2 independent set, which makes
// the selected pivots' neighbourhoods pairwise disjoint.
func (s *solver) selectPivots() []int {
	md := -1
	cands := s.cands[:0]
	for v := 0; v < s.n; v++ {
		if s.state[v] != stAlive {
			continue
		}
		if md == -1 || s.deg[v] < md {
			md = s.deg[v]
			cands = cands[:0]
		}
		if s.deg[v] == md {
			cands = append(cands, v)
		}
	}
	s.cands = cands
	s.selEpoch++
	epoch := s.selEpoch
	var pivots []int
	for _, v := range cands {
		if s.selMark[v] == epoch {
			continue
		}
		buf := s.nbrBuf[:0]
		ok := true
		for _, j := range s.adjV[v] {
			r := s.find(j)
			if s.state[r] != stAlive || r == v {
				continue
			}
			if s.selMark[r] == epoch {
				ok = false
				break
			}
			buf = append(buf, r)
		}
		if ok {
			for _, e := range s.adjE[v] {
				if s.state[e] != stPivot {
					continue
				}
				for _, j := range s.membs[e] {
					r := s.find(j)
					if s.state[r] != stAlive || r == v {
						continue
					}
					if s.selMark[r] == epoch {
						ok = false
						break
					}
					buf = append(buf, r)
				}
				if !ok {
					break
				}
			}
		}
		s.nbrBuf = buf
		if !ok {
			continue
		}
		s.selMark[v] = epoch
		for _, r := range buf {
			s.selMark[r] = epoch
		}
		pivots = append(pivots, v)
	}
	return pivots
}

// eliminate turns pivot p into an element: gather L_p (the distinct alive
// variables adjacent to p directly or through p's elements), absorb those
// elements, and rebuild every member's adjacency lists clean — alive
// entries only, L_p and p removed from adjV (that coupling now lives in the
// new element), the new element appended to adjE, both sorted. Distance-2
// independence makes every read and write here pivot-local.
func (s *solver) eliminate(ws *workerScratch, p int) {
	ws.lEpoch++
	le := ws.lEpoch
	ws.lMark[p] = le
	buf := ws.buf[:0]
	for _, j := range s.adjV[p] {
		r := s.find(j)
		if s.state[r] != stAlive || ws.lMark[r] == le {
			continue
		}
		ws.lMark[r] = le
		buf = append(buf, r)
	}
	for _, e := range s.adjE[p] {
		if s.state[e] != stPivot {
			continue
		}
		for _, j := range s.membs[e] {
			r := s.find(j)
			if s.state[r] != stAlive || ws.lMark[r] == le {
				continue
			}
			ws.lMark[r] = le
			buf = append(buf, r)
		}
		s.state[e] = stDead
		s.membs[e] = nil
	}
	sort.Ints(buf)
	lp := make([]int, len(buf))
	copy(lp, buf)
	ws.buf = buf
	s.membs[p] = lp
	m := 0
	for _, i := range lp {
		m += s.mass[i]
	}
	s.elMas[p] = m

	for _, i := range lp {
		ws.dEpoch++
		de := ws.dEpoch
		av := s.adjV[i][:0]
		for _, j := range s.adjV[i] {
			r := s.find(j)
			if s.state[r] != stAlive || ws.lMark[r] == le || ws.dMark[r] == de {
				continue
			}
			ws.dMark[r] = de
			av = append(av, r)
		}
		sort.Ints(av)
		s.adjV[i] = av

		ae := s.adjE[i][:0]
		for _, e := range s.adjE[i] {
			if s.state[e] != stPivot {
				continue
			}
			ae = append(ae, e)
		}
		ae = append(ae, p)
		sort.Ints(ae)
		s.adjE[i] = ae
	}
}

// mergeVariables detects indistinguishable supervariables among the members
// of p's new element: two members with identical pruned adjacency lists
// (same external variables, same elements) evolve identically in every
// future round, so the larger id is absorbed into the smaller — mass moves,
// the absorbed id joins kids for emission. Indistinguishable variables are
// necessarily members of the same new element, so scanning within L_p
// finds every merge the round enables, and stays pivot-local.
func (s *solver) mergeVariables(ws *workerScratch, p int) {
	lp := s.membs[p]
	if len(lp) < 2 {
		return
	}
	groups := ws.groups[:0]
	for _, i := range lp {
		h := uint64(1469598103934665603)
		for _, j := range s.adjV[i] {
			h = (h ^ uint64(j)) * 1099511628211
		}
		h = (h ^ uint64(len(s.adjV[i]))) * 1099511628211
		for _, e := range s.adjE[i] {
			h = (h ^ uint64(e)) * 1099511628211
		}
		h = (h ^ uint64(len(s.adjE[i]))) * 1099511628211
		groups = append(groups, memberKey{hash: h, id: i})
	}
	ws.groups = groups
	slices.SortFunc(groups, func(a, b memberKey) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	for lo := 0; lo < len(groups); {
		hi := lo + 1
		for hi < len(groups) && groups[hi].hash == groups[lo].hash {
			hi++
		}
		// Within one hash group, ids ascend: each member is absorbed into
		// the first earlier leader with identical lists, so the smallest
		// id of an indistinguishable class is its representative.
		for a := lo + 1; a < hi; a++ {
			j := groups[a].id
			for b := lo; b < a; b++ {
				i := groups[b].id
				if s.state[i] != stAlive || !equalInts(s.adjV[i], s.adjV[j]) || !equalInts(s.adjE[i], s.adjE[j]) {
					continue
				}
				s.mass[i] += s.mass[j]
				s.state[j] = stMerged
				s.repr[j] = i
				s.kids[i] = append(s.kids[i], j)
				break
			}
		}
		lo = hi
	}
}

// equalInts reports element-wise equality of two sorted lists.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// updateDegrees recomputes the approximate external degree of every alive
// member of p's new element with the aggregated w-trick: one sweep over the
// members' element lists leaves w(e) = |L_e \ L_p| in mass units, and each
// member then takes the Amestoy-Davis-Duff minimum of the alive-mass bound,
// the old-degree bound and the exact-over-elements bound. Members' adjV
// lists are re-resolved (this round's merges may have collapsed neighbours)
// and elements with no mass outside L_p are dropped — they are redundant.
// aliveEnd is the alive mass after the round's eliminations.
func (s *solver) updateDegrees(ws *workerScratch, p int, aliveEnd int) {
	lp := s.membs[p]
	ws.wEpoch++
	we := ws.wEpoch
	for _, i := range lp {
		if s.state[i] != stAlive {
			continue
		}
		for _, e := range s.adjE[i] {
			if e == p {
				continue
			}
			if ws.wMark[e] != we {
				ws.wMark[e] = we
				ws.wVal[e] = s.elMas[e]
			}
			ws.wVal[e] -= s.mass[i]
		}
	}
	for _, i := range lp {
		if s.state[i] != stAlive {
			continue
		}
		lpExt := s.elMas[p] - s.mass[i]
		ws.dEpoch++
		de := ws.dEpoch
		aMass := 0
		av := s.adjV[i][:0]
		for _, j := range s.adjV[i] {
			r := s.find(j)
			if s.state[r] != stAlive || ws.dMark[r] == de {
				continue
			}
			ws.dMark[r] = de
			av = append(av, r)
			aMass += s.mass[r]
		}
		sort.Ints(av)
		s.adjV[i] = av

		ext := 0
		ae := s.adjE[i][:0]
		for _, e := range s.adjE[i] {
			if e == p {
				ae = append(ae, e)
				continue
			}
			w := ws.wVal[e]
			if w == 0 {
				// Every unit of e's mass sits inside L_p: the element
				// contributes nothing beyond the new one. All its live
				// references are members — inside this pivot's territory —
				// so retiring it here is race-free.
				s.state[e] = stDead
				s.membs[e] = nil
				continue
			}
			ext += w
			ae = append(ae, e)
		}
		s.adjE[i] = ae

		d := s.deg[i] + lpExt
		if v := aMass + lpExt + ext; v < d {
			d = v
		}
		if v := aliveEnd - s.mass[i]; v < d {
			d = v
		}
		s.deg[i] = d
	}
}

// perm assembles the elimination order: rounds chronologically, pivots of a
// round in selection (ascending id) order, and each pivot followed by the
// variables absorbed into its supervariable, depth-first in merge order —
// indistinguishable variables are numbered consecutively, the property the
// supervariable machinery exists to exploit.
func (s *solver) perm() []int {
	out := make([]int, 0, s.n)
	stack := make([]int, 0, 64)
	for _, round := range s.rounds {
		for _, p := range round {
			stack = append(stack, p)
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				out = append(out, v)
				k := s.kids[v]
				for t := len(k) - 1; t >= 0; t-- {
					stack = append(stack, k[t])
				}
			}
		}
	}
	return out
}
