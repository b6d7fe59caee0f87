package core

import (
	"repro/internal/psort"
	"repro/internal/semiring"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// Algebraic computes the RCM ordering with a sequential transliteration of
// the paper's matrix-algebraic formulation: Algorithm 3 (ordering) and
// Algorithm 4 (pseudo-peripheral vertex), expressed with the Table I
// primitives of package spvec and a sequential CSC SpMSpV — plus, per level,
// the direction-optimized bottom-up alternative to the SpMSpV (Beamer's
// hybrid, selected by Options.Direction). It produces the identical
// permutation to Sequential and serves as the single-process reference for
// the distributed implementation.
func Algebraic(a *spmat.CSR) *Ordering { return AlgebraicOpt(a, DefaultOptions()) }

// AlgebraicOpt is Algebraic with explicit options.
func AlgebraicOpt(a *spmat.CSR, opt Options) *Ordering {
	n := a.N
	csc := a.ToCSC()
	degInt := a.Degrees()
	deg := make([]int64, n)
	var totalDeg int64
	for i, d := range degInt {
		deg[i] = int64(d)
		totalDeg += int64(d)
	}
	sr := semiring.Select2ndMin
	spa := newSpa(n)

	// R: dense ordering vector, -1 = unlabeled (Algorithm 3, line 1).
	// orderVis mirrors R >= 0 as a bitmap for the bottom-up kernel, and mu
	// tracks the edges incident to still-unlabeled vertices (the Beamer m_u
	// count), both maintained incrementally so component-heavy inputs never
	// pay per-component rescans.
	r := spvec.NewDense(n, -1)
	orderVis := spmat.NewBitmap(n)
	mu := totalDeg
	res := &Ordering{}
	nv := int64(0)
	cursor := 0
	for {
		start := -1
		for ; cursor < n; cursor++ {
			if r[cursor] < 0 {
				start = cursor
				break
			}
		}
		if start == -1 {
			break
		}
		if res.Components == 0 && opt.Start >= 0 {
			start = opt.Start
		}
		root := start
		if !opt.SkipPeripheral {
			var ecc int
			sw := &algSweeper{a: csc, deg: deg, sr: sr, s: spa, opt: opt, orderVis: orderVis, muAll: mu}
			root, ecc = opt.policy().PickRoot(start, sw)
			if ecc > res.PseudoDiameter {
				res.PseudoDiameter = ecc
			}
		}
		nv = algebraicOrder(csc, deg, r, root, nv, sr, spa, opt, orderVis, &mu)
		res.Components++
	}
	res.Perm = permFromLabels(r, !opt.NoReverse)
	return res
}

// spa is the sparse accumulator of the sequential SpMSpV, together with the
// keyed-sort workspace of the per-level SORTPERM and the bitmap and output
// buffers of the bottom-up kernel.
type spa struct {
	acc   spmat.SPA
	tupWS psort.Scratch[spvec.Tuple]

	frontBits spmat.Bitmap // frontier bitmap, bits live only within one level
	periVis   spmat.Bitmap // per-BFS visited bitmap of the peripheral search
	rvOut     []spmat.RowVal
}

func newSpa(n int) *spa {
	return &spa{frontBits: spmat.NewBitmap(n)}
}

// seqSpMSpV computes A·x over the semiring: the sequential CSC kernel
// (SPMSPV of Table I), folding every column of the frontier into the same
// sparse accumulator the distributed kernels use, with sr's Add inlined
// into the per-edge loop. The output is index-sorted.
func seqSpMSpV(a *spmat.CSC, x *spvec.Sp, sr semiring.Semiring, s *spa) *spvec.Sp {
	s.acc.Reset(a.Rows)
	for k, j := range x.Ind {
		s.acc.FoldColumn(a.Column(j), sr.Multiply(x.Val[k]), sr)
	}
	touched := s.acc.Drain()
	out := &spvec.Sp{Ind: make([]int, 0, len(touched)), Val: make([]int64, 0, len(touched))}
	for _, i := range touched {
		out.Append(i, s.acc.Value(i))
	}
	return out
}

// seqBottomUp is the sequential bottom-up level expansion: the frontier is
// densified into a bitmap and every unvisited vertex scans its own adjacency
// (the CSC column, since the matrix is symmetric) for frontier neighbours,
// folding labels with the semiring. The output equals
// Select(seqSpMSpV(a, cur), unvisited) entry for entry — the sequential form
// of the byte-identity the distributed BottomUpStep maintains.
func seqBottomUp(a *spmat.CSC, vis spmat.Bitmap, cur *spvec.Sp, labels []int64, sr semiring.Semiring, earlyExit bool, fill int64, s *spa) *spvec.Sp {
	for _, v := range cur.Ind {
		s.frontBits.Set(v)
	}
	out, _ := spmat.BottomUpCSC(a, vis, s.frontBits, labels, sr, earlyExit, fill, s.rvOut[:0])
	s.rvOut = out
	for _, v := range cur.Ind {
		s.frontBits.Unset(v)
	}
	next := &spvec.Sp{Ind: make([]int, 0, len(out)), Val: make([]int64, 0, len(out))}
	for _, rv := range out {
		next.Append(rv.Row, rv.Val)
	}
	return next
}

// frontierEdges sums the degrees over a frontier (the Beamer m_f count).
func frontierEdges(x *spvec.Sp, deg []int64) int64 {
	var mf int64
	for _, i := range x.Ind {
		mf += deg[i]
	}
	return mf
}

// algSweeper is the Algebraic engine's rooted-BFS oracle for the
// start-vertex policies: one Sweep is one iteration of Algorithm 4's
// repeated BFS, via SpMSpV — or, on fat levels, the label-free bottom-up
// sweep, where early exit per vertex is legal because every frontier value
// carries the same level. orderVis marks the already-ordered components,
// which seed each sweep's visited mask so bottom-up levels never rescan
// them (output-neutral: cross-component adjacency is empty). muAll is the
// current count of edges incident to unlabeled vertices.
type algSweeper struct {
	a        *spmat.CSC
	deg      []int64
	sr       semiring.Semiring
	s        *spa
	opt      Options
	orderVis spmat.Bitmap
	muAll    int64
}

// Sweep runs one BFS from root and summarizes its level structure; the
// candidate shortlist realises the r ← REDUCE(Lcur, D) step (and its
// bi-criteria K-way generalization) over the last level.
func (sw *algSweeper) Sweep(root, maxCand int) LevelStructure {
	a, s := sw.a, sw.s
	l := spvec.NewDense(a.Cols, -1) // L: BFS level per vertex (-1 unvisited)
	l[root] = 0
	s.periVis = s.periVis.Reuse(a.Cols)
	copy(s.periVis, sw.orderVis)
	s.periVis.Set(root)
	pol := newDirPolicy(sw.opt, a.Cols)
	mu := sw.muAll - sw.deg[root]
	curCnt, curMf := int64(1), sw.deg[root]
	cur := spvec.Single(root, 0)
	last := cur
	ecc := 0
	width := int64(1)
	for {
		spvec.GatherDense(cur, l) // Lcur ← SET(Lcur, L)
		var next *spvec.Sp
		if pol.step(curCnt, curMf, mu) {
			next = seqBottomUp(a, s.periVis, cur, nil, sw.sr, true, 0, s)
		} else {
			next = seqSpMSpV(a, cur, sw.sr, s)
			next = spvec.Select(next, l, func(v int64) bool { return v == -1 })
		}
		if next.Len() == 0 {
			break
		}
		ecc++
		if int64(next.Len()) > width {
			width = int64(next.Len())
		}
		for k := range next.Val {
			next.Val[k] = int64(ecc)
		}
		spvec.SetDense(l, next) // L ← SET(L, Lnext)
		for _, v := range next.Ind {
			s.periVis.Set(v)
		}
		curCnt, curMf = int64(next.Len()), frontierEdges(next, sw.deg)
		mu -= curMf
		cur, last = next, next
	}
	ls := LevelStructure{Root: root, Height: ecc, Width: width}
	if maxCand > 1 {
		ls.RootDeg = sw.deg[root]
	}
	for _, v := range last.Ind {
		ls.Candidates = pushCandidate(ls.Candidates, Candidate{ID: v, Deg: sw.deg[v]}, maxCand)
	}
	return ls
}

// algebraicOrder is Algorithm 3: the ordering BFS. Frontier values carry the
// labels of the frontier vertices; SpMSpV over (select2nd, min) — or the
// bottom-up masked sweep, which folds the same min over all frontier
// neighbours and is therefore byte-identical — hands every discovered vertex
// its minimum-label parent; SORTPERM labels the next frontier
// lexicographically by (parent label, degree, vertex id).
func algebraicOrder(a *spmat.CSC, deg []int64, r []int64, root int, nv int64, sr semiring.Semiring, s *spa, opt Options, orderVis spmat.Bitmap, mu *int64) int64 {
	pol := newDirPolicy(opt, a.Cols)
	r[root] = nv
	orderVis.Set(root)
	nv++
	*mu -= deg[root]
	curCnt, curMf := int64(1), deg[root]
	cur := spvec.Single(root, 0)
	for {
		spvec.GatherDense(cur, r) // Lcur ← SET(Lcur, R)
		var next *spvec.Sp
		if pol.step(curCnt, curMf, *mu) {
			next = seqBottomUp(a, orderVis, cur, r, sr, false, 0, s)
		} else {
			next = seqSpMSpV(a, cur, sr, s)
			next = spvec.Select(next, r, func(v int64) bool { return v == -1 })
		}
		if next.Len() == 0 {
			return nv
		}
		// Rnext ← SORTPERM(Lnext, D) + nv.
		tuples := spvec.TuplesOf(next, deg)
		spvec.SortTuplesWS(&s.tupWS, tuples)
		for k, t := range tuples {
			r[t.Vertex] = nv + int64(k) // R ← SET(R, Rnext)
			orderVis.Set(t.Vertex)
		}
		nv += int64(len(tuples))
		curCnt, curMf = int64(next.Len()), frontierEdges(next, deg)
		*mu -= curMf
		cur = next
	}
}
