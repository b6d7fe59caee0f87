package core

import "fmt"

// Direction selects the traversal direction policy of the level-synchronous
// BFS engines (Shared, Distributed). The classic queue-based
// Sequential engine has no level structure to optimize and ignores it.
//
// Direction optimization never changes the computed permutation: the
// bottom-up sweep folds every discovered vertex's label over *all* its
// frontier neighbours with the same (select2nd, min) semiring the top-down
// SpMSpV uses, so the two directions are byte-identical level for level (the
// golden tests pin this). Only the work and communication shape differ.
type Direction int

const (
	// DirAuto switches per level with Beamer's α/β heuristic computed from
	// exact (AllReduced, in the distributed engine) frontier and unexplored
	// edge counts, so every rank flips in lockstep. The default.
	DirAuto Direction = iota
	// DirTopDown forces the classic frontier-driven sweep on every level.
	DirTopDown
	// DirBottomUp forces the bottom-up masked sweep on every level. Mostly
	// useful for tests and ablations; Auto is never worse.
	DirBottomUp
)

// String names the direction policy in reports.
func (d Direction) String() string {
	switch d {
	case DirAuto:
		return "auto"
	case DirTopDown:
		return "top-down"
	case DirBottomUp:
		return "bottom-up"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Beamer's switching thresholds (α, β from "Direction-Optimizing
// Breadth-First Search", SC'12): expand bottom-up once the frontier touches
// more than 1/α of the edges still incident to unexplored vertices, and
// return to top-down once the frontier shrinks below 1/β of the vertices.
const (
	DefaultDirAlpha = 14
	DefaultDirBeta  = 24
)

// dirPolicy is the deterministic per-BFS direction switch. All inputs to
// step are global exact counts, so every rank of a distributed run computes
// the identical decision sequence with no extra communication.
type dirPolicy struct {
	forced      Direction
	alpha, beta int64
	n           int64 // total vertex count (the β denominator)
	// muScale multiplies m_u in the α comparison: the cost of one
	// bottom-up sweep relative to the serial masked scan Beamer's α was
	// tuned for. The distributed engine sets it to √p, because on the 2D
	// decomposition every rank of a processor row scans its whole row
	// block independently — a √p-way duplication of the unvisited-side
	// work that makes bottom-up proportionally less attractive.
	muScale  int64
	bottomUp bool  // hysteresis state: current direction
	prevCnt  int64 // previous frontier size (the growing/shrinking test)
}

// newDirPolicy resolves the options into a policy for one BFS of a graph
// with n vertices. Each BFS (each pseudo-peripheral sweep, each component
// ordering) starts top-down, like Beamer's.
func newDirPolicy(opt Options, n int) dirPolicy {
	p := dirPolicy{forced: opt.Direction, alpha: int64(opt.DirAlpha), beta: int64(opt.DirBeta), n: int64(n), muScale: 1}
	if p.alpha <= 0 {
		p.alpha = DefaultDirAlpha
	}
	if p.beta <= 0 {
		p.beta = DefaultDirBeta
	}
	return p
}

// step decides the direction for expanding the current frontier: cnt
// vertices carrying mf incident edges, with mu edges incident to the still
// unexplored vertices. Top-down switches down while the frontier is growing
// (cnt ≥ previous cnt), mf·α > mu·muScale — the frontier would touch more
// edges than a masked scan of the unexplored side — and cnt·β ≥ n, so the
// bottom-up regime is not entered when its own exit condition already holds
// (thin frontiers on high-diameter meshes otherwise enter and linger on
// hysteresis). Bottom-up switches back up once the frontier is shrinking
// and cnt·β < n — sparse expansion wins again. The growing/shrinking
// conditions are Beamer's: without them the tail of a BFS, where mf and mu
// are both tiny, would flap back into bottom-up. Returns true for
// bottom-up.
func (p *dirPolicy) step(cnt, mf, mu int64) bool {
	growing := cnt >= p.prevCnt
	p.prevCnt = cnt
	switch p.forced {
	case DirTopDown:
		return false
	case DirBottomUp:
		return true
	}
	if !p.bottomUp {
		if growing && mf*p.alpha > mu*p.muScale && cnt*p.beta >= p.n {
			p.bottomUp = true
		}
	} else if !growing && cnt*p.beta < p.n {
		p.bottomUp = false
	}
	return p.bottomUp
}
