package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/distmat"
	"repro/internal/graphgen"
	"repro/internal/grid"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// SortMode selects how the next frontier is labeled, covering the paper's
// §VI future-work alternatives to the full distributed sort.
type SortMode int

const (
	// SortFull is the paper's algorithm: a distributed bucket sort by
	// (parent label, degree, vertex id) spanning all processes.
	SortFull SortMode = iota
	// SortLocal sorts only within each process, avoiding the global
	// AllToAll at some cost in ordering quality.
	SortLocal
	// SortNone labels vertices in discovery order, skipping the degree
	// sort entirely.
	SortNone
)

// String names the sort mode in reports.
func (m SortMode) String() string {
	switch m {
	case SortFull:
		return "full"
	case SortLocal:
		return "local"
	case SortNone:
		return "none"
	}
	return fmt.Sprintf("SortMode(%d)", int(m))
}

// DistOptions configures a distributed RCM run.
type DistOptions struct {
	// Procs is the number of simulated MPI processes; it must be a
	// perfect square (the paper's implementation has the same
	// restriction).
	Procs int
	// Model is the machine cost model; nil selects tally.Edison(). The
	// model's Threads field is the hybrid MPI+OpenMP thread count per
	// process, so "cores" = Procs × Threads.
	Model *tally.Model
	// SortMode selects the frontier labeling strategy (default SortFull).
	SortMode SortMode
	// RandomPermSeed, when nonzero, applies the random symmetric
	// load-balancing permutation of §IV-A before ordering ("to balance
	// load across processors, we randomly permute the input matrix A")
	// and composes it back out of the returned permutation, so Perm
	// still refers to the caller's matrix.
	RandomPermSeed int64
	// Hypersparse stores local blocks in DCSC (doubly compressed) form,
	// the CombBLAS storage for large process grids where blocks have far
	// fewer nonzeros than columns. The ordering is unchanged; only the
	// memory footprint and kernel probe pattern differ.
	Hypersparse bool
	// Options embeds the common start-vertex controls.
	Options
}

// DistOrdering extends Ordering with the modelled performance breakdown of
// the simulated run.
type DistOrdering struct {
	Ordering
	// Breakdown aggregates the per-rank BSP clocks and phase buckets; its
	// phase times are the bar segments of Fig. 4, and its SpMSpV
	// comp/comm split is Fig. 5.
	Breakdown tally.Breakdown
	// Procs and Threads record the configuration (cores = Procs×Threads).
	Procs, Threads int
}

// Distributed computes the RCM ordering with the paper's distributed-memory
// algorithm on the simulated runtime: the matrix is decomposed onto a
// √p×√p process grid, and Algorithms 3 and 4 run as bulk-synchronous
// compositions of the distributed Table I primitives.
func Distributed(a *spmat.CSR, opt DistOptions) *DistOrdering {
	res, _ := distributed(a, opt)
	return res
}

// distributed is Distributed that also returns the per-rank stats its
// Breakdown aggregates.
func distributed(a *spmat.CSR, opt DistOptions) (*DistOrdering, []*tally.Stats) {
	if opt.Procs < 1 {
		opt.Procs = 1
	}
	if q := grid.Isqrt(opt.Procs); q*q != opt.Procs {
		// Validate in the caller so the panic is recoverable; the same
		// restriction the paper's implementation has (§V-A).
		panic(fmt.Sprintf("core: Distributed requires a square process count, got %d", opt.Procs))
	}
	model := opt.Model
	if model == nil {
		model = tally.Edison()
	}
	var scramble []int
	if opt.RandomPermSeed != 0 {
		a, scramble = graphgen.Scramble(a, opt.RandomPermSeed)
		if opt.Start >= 0 && len(scramble) > 0 {
			// Start refers to the caller's vertex ids; translate.
			inv := spmat.InvertPerm(scramble)
			opt.Start = inv[opt.Start]
		}
	}
	n := a.N
	res := &DistOrdering{Procs: opt.Procs, Threads: model.Threads}
	var labels []int64
	var diam, comps int

	stats := comm.Run(opt.Procs, model, func(c *comm.Comm) {
		g := grid.Square(c)
		d := grid.NewDist(g, n)
		c.Stats().SetPhase(tally.Setup)
		A := distmat.NewMat(d, a)
		if opt.Hypersparse {
			A.EnableDCSC()
		}
		D := distmat.DegreeVec(A)
		R := distmat.NewVec(d, -1)

		// Per-rank SORTPERM scratch, shared by every level and component.
		sortWS := &distmat.SortWS{}

		// mu counts the edges incident to still-unlabeled vertices — the
		// Beamer m_u of the direction heuristic — initialised from one
		// AllReduce and maintained by identical arithmetic on every rank.
		// Forced top-down runs skip all direction bookkeeping (this scan,
		// the per-sweep visited seeds and the root-degree collectives), so
		// they remain the unencumbered baseline; the gate is uniform
		// across ranks, keeping the collective sequence aligned.
		mu := int64(0)
		if opt.Direction != DirTopDown {
			var localDeg int64
			for _, v := range D.Data {
				localDeg += v
			}
			c.Stats().AddWork(int64(len(D.Data)))
			//lint:ignore lockstep opt.Direction is replicated configuration: every rank evaluates the same gate
			mu = comm.AllReduceSum(c, localDeg)
		}

		// The cursor ends the run without a collective once every vertex
		// is labeled.
		nv := int64(0)
		cursor := 0
		next := func() int {
			if nv == int64(n) {
				return -1
			}
			c.Stats().SetPhase(tally.PeripheralOther)
			//lint:ignore lockstep nv advances only by collective results (AllReduceSum of labelled counts), so every rank evaluates the loop condition identically
			return firstUnlabeled(R, &cursor)
		}
		sw := &distSweeper{A: A, D: D, R: R, opt: opt, muAll: &mu}
		nc, pd := eachComponent(opt.Options, next, sw, func(root int) {
			nv = distOrder(A, D, R, root, nv, opt, sortWS, &mu)
		})

		c.Stats().SetPhase(tally.Setup)
		full := R.Gather(0)
		if c.Rank() == 0 {
			labels = full
			diam = pd
			comps = nc
		}
	})

	res.Breakdown = tally.Collect(stats)
	res.PseudoDiameter = diam
	res.Components = comps
	res.Perm = permFromLabels(labels, !opt.NoReverse)
	if scramble != nil {
		// Perm orders the scrambled matrix QAQᵀ; compose with the
		// scramble so it orders the caller's A: position k holds
		// scrambled row Perm[k], which is original row
		// scramble[Perm[k]].
		for k, v := range res.Perm {
			res.Perm[k] = scramble[v]
		}
	}
	return res, stats
}

// firstUnlabeled returns the smallest global index with R == -1, or -1 if
// all vertices are labeled. cursor is the per-rank resume position of the
// local scan: labels are never unset, so positions skipped once stay
// labeled and the total scan cost over a run is O(n/p + components) per
// rank instead of O(n/p·components). Collective.
func firstUnlabeled(r *distmat.Vec, cursor *int) int {
	best := math.MaxInt
	k := *cursor
	for ; k < len(r.Data); k++ {
		if r.Data[k] < 0 {
			best = r.Lo + k
			break
		}
	}
	r.D.G.World.Stats().AddWork(int64(k - *cursor + 1))
	// The found position may stay unlabeled if another component is
	// processed first, so the cursor parks on it rather than past it.
	*cursor = k
	out := comm.AllReduce(r.D.G.World, best, func(a, b int) int {
		if a < b {
			return a
		}
		return b
	})
	if out == math.MaxInt {
		return -1
	}
	return out
}

// distSweeper is the Distributed engine's rooted-BFS oracle for the
// start-vertex policies: one Sweep is one iteration of Algorithm 4 on the
// distributed primitives — a breadth-first search via SPMSPV over
// (select2nd, min), or, on fat levels, the bottom-up masked SpMV of
// distmat.BottomUpStep, label-free because every frontier value carries the
// same level — followed by the K-way REDUCE shortlisting the
// minimum-(degree, id) vertices of the last level. The direction switch and
// the level widths run on exact AllReduced counts, and the candidate
// shortlist is merged identically on every rank, so every rank returns the
// identical LevelStructure and the policy decides in lockstep. muAll points
// at the run's count of edges incident to unlabeled vertices.
type distSweeper struct {
	A     *distmat.Mat
	D     *distmat.Vec
	R     *distmat.Vec
	opt   DistOptions
	muAll *int64
}

// Sweep runs one collective BFS from root and summarizes its level
// structure. Collective: all ranks call it with identical arguments.
func (sw *distSweeper) Sweep(root, maxCand int) LevelStructure {
	A, D, R, opt := sw.A, sw.D, sw.R, sw.opt
	g := A.D.G
	g.World.Stats().SetPhase(tally.PeripheralOther)
	g.World.Stats().AddSweep(maxCand > 1)
	L := distmat.NewVec(A.D, -1)
	var rootDeg int64
	if opt.Direction != DirTopDown {
		// Seed the visited state from the already-ordered components,
		// so bottom-up levels never rescan them. Output-neutral:
		// cross-component adjacency is empty, so neither direction
		// could discover those vertices anyway.
		for k, v := range R.Data {
			if v >= 0 {
				L.Data[k] = 0
			}
		}
		g.World.Stats().AddWork(int64(len(R.Data)))
	}
	if opt.Direction != DirTopDown || maxCand > 1 {
		// One collective serves both consumers: the direction policy's mu
		// bookkeeping and the bi-criteria tie-breaking degree. The value
		// never depends on the direction mode, so neither does the policy.
		//lint:ignore lockstep opt.Direction and maxCand are replicated options: every rank evaluates the same gate
		rootDeg = distmat.DegreeOf(D, root)
	}
	if L.Owns(root) {
		L.Set(root, 0)
	}
	pol := newDirPolicy(opt.Options, A.D.N)
	pol.muScale = int64(g.Pr) // √p row-duplication of the masked scan
	mu := *sw.muAll - rootDeg
	curCnt, curMf := int64(1), rootDeg
	cur := distmat.NewSpVSingle(A.D, root, 0)
	last := cur
	ecc := 0
	width := int64(1)
	for {
		cur.GatherDense(L)
		bu := pol.step(curCnt, curMf, mu)
		g.World.Stats().SetPhase(tally.PeripheralSpMSpV)
		var next *distmat.SpV
		if bu {
			//lint:ignore lockstep bu comes from the direction policy fed only rank-identical counts (collective results), so all ranks pick the same step
			next = distmat.BottomUpStep(A, cur, L, true)
		} else {
			//lint:ignore lockstep bu comes from the direction policy fed only rank-identical counts (collective results), so all ranks pick the same step
			next = distmat.SpMSpV(A, cur)
		}
		g.World.Stats().AddLevel(bu)
		g.World.Stats().SetPhase(tally.PeripheralOther)
		if !bu {
			next.SelectUnlabeled(L)
		}
		cnt, mf := next.CountWithDegree(D)
		if cnt == 0 {
			break
		}
		ecc++
		if cnt > width {
			width = cnt
		}
		for k := range next.Loc.Val {
			next.Loc.Val[k] = int64(ecc)
		}
		next.SetDense(L)
		curCnt, curMf = cnt, mf
		mu -= mf
		cur, last = next, next
	}
	ls := LevelStructure{Root: root, Height: ecc, Width: width}
	if maxCand > 1 {
		ls.RootDeg = rootDeg
	}
	for _, c := range last.ArgMinKBy(D, maxCand) {
		ls.Candidates = append(ls.Candidates, Candidate{ID: c.Ind, Deg: c.Key})
	}
	return ls
}

// distOrder is Algorithm 3 on the distributed primitives: the labeling BFS
// whose per-level expansion runs top-down (SPMSPV) or bottom-up (the masked
// SpMV, byte-identical because the (select2nd, min) fold sees all frontier
// neighbours either way) under the Beamer switch, and whose next frontier is
// labeled by the distributed SORTPERM. The sort workspace is per-rank
// scratch threaded from the Run closure so the per-level steady state stops
// allocating; mu is the run-level unlabeled-edge count, maintained by
// identical arithmetic on every rank.
func distOrder(A *distmat.Mat, D *distmat.Vec, R *distmat.Vec, root int, nv int64, opt DistOptions, sortWS *distmat.SortWS, mu *int64) int64 {
	g := A.D.G
	g.World.Stats().SetPhase(tally.OrderingOther)
	if R.Owns(root) {
		R.Set(root, nv)
	}
	nv++
	var rootDeg int64
	if opt.Direction != DirTopDown {
		//lint:ignore lockstep opt.Direction is replicated configuration: every rank evaluates the same gate
		rootDeg = distmat.DegreeOf(D, root)
	}
	pol := newDirPolicy(opt.Options, A.D.N)
	pol.muScale = int64(g.Pr) // √p row-duplication of the masked scan
	*mu -= rootDeg
	curCnt, curMf := int64(1), rootDeg
	cur := distmat.NewSpVSingle(A.D, root, 0)
	for {
		cur.GatherDense(R) // Lcur ← SET(Lcur, R)
		bu := pol.step(curCnt, curMf, *mu)
		g.World.Stats().SetPhase(tally.OrderingSpMSpV)
		var next *distmat.SpV
		if bu {
			//lint:ignore lockstep bu comes from the direction policy fed only rank-identical counts (collective results), so all ranks pick the same step
			next = distmat.BottomUpStep(A, cur, R, false) // Lnext ← masked SpMV
		} else {
			//lint:ignore lockstep bu comes from the direction policy fed only rank-identical counts (collective results), so all ranks pick the same step
			next = distmat.SpMSpV(A, cur) // Lnext ← SPMSPV(A, Lcur)
		}
		g.World.Stats().AddLevel(bu)
		g.World.Stats().SetPhase(tally.OrderingOther)
		if !bu {
			next.SelectUnlabeled(R)
		}
		cnt, mf := next.CountWithDegree(D)
		if cnt == 0 {
			return nv
		}
		g.World.Stats().SetPhase(tally.OrderingSort)
		var rnext *distmat.SpV
		switch opt.SortMode {
		case SortLocal:
			rnext = distmat.SortPermLocalWS(sortWS, next, D, nv)
		case SortNone:
			rnext = distmat.SortPermNone(next, nv)
		default:
			rnext = distmat.SortPermWS(sortWS, next, D, nv) // Rnext ← SORTPERM(Lnext, D) + nv
		}
		g.World.Stats().SetPhase(tally.OrderingOther)
		rnext.SetDense(R) // R ← SET(R, Rnext)
		nv += cnt
		curCnt, curMf = cnt, mf
		*mu -= mf
		cur = next
	}
}
